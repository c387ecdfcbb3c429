"""Config loading and the command-line harness."""

import copy
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from planestore import cli
from planestore.address import Trace
from planestore.bitplane import (
    CODEC_BLOCK,
    KIND_LABELS,
    NUM_PLANES,
    BitPlaneImage,
    ChunkKind,
    load_image,
    plane_stride_for,
    unpack_full,
)
from planestore.cli import (
    CSV_COLUMNS,
    REPORT_SCHEMA_VERSION,
    check_report,
    main,
    parse_trace,
    render_trace,
)
from planestore.config import DEFAULTS, load_config
from planestore.dram import DramState, plan, schedule, simulate
from planestore.experiment import (
    chunk_latency_deltas,
    compare_assignment,
    run_mode,
    solve_assignment,
)
from planestore.workload import ModelGeometry, avg_bits, enumerate_chunks, gen_scores

from reference import (
    FP8,
    NO_GUARD,
    assert_same_planes,
    assignment_of,
    chunks,
    dram,
    expand,
    format_for,
    reference_gen_scores,
    reference_pack,
    reference_simulate,
    reference_unpack_full,
    reference_trace,
)

DEFAULT_YAML = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"

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
  attention_head: {family: uniform}
  mlp_neuron: {family: uniform}
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
    cfg = load_config()
    assert cfg.seed == 1234
    assert cfg.targets == (1.6, 3.2, 4.8, 6.4, 8.0)
    assert [f.name for f in cfg.ladder] == ["FP16", "FP12", "FP8", "FP6", "FP4", "FP0"]
    assert cfg.geometry.total_weights == 8113536
    assert cfg.dram.channels == 4
    assert cfg.resolved == DEFAULTS


def test_readme_python_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_checked_in_default_file_matches_builtins():
    cfg = load_config(str(DEFAULT_YAML))
    assert cfg.resolved == DEFAULTS


def test_config_merge_is_partial(tmp_path, small_config):
    cfg = load_config(small_config)
    # Overridden keys take, untouched keys keep their defaults.
    assert cfg.geometry.layers == 1
    assert cfg.dram.t_rcd == 34
    assert cfg.seed == 7


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "geometri: {layers: 2}\n")
    with pytest.raises(ValueError, match="unknown config key 'geometri'"):
        load_config(path)
    path = write_config(tmp_path, "dram: {t_rcdx: 3}\n", "d.yaml")
    with pytest.raises(ValueError, match="dram.t_rcdx"):
        load_config(path)


def test_importance_merges_by_kind(tmp_path):
    # A file naming one kind keeps the other kind's default distribution.
    one_kind = SMALL_YAML.replace("  mlp_neuron: {family: uniform}\n", "")
    path = write_config(tmp_path, one_kind)
    cfg = load_config(path)
    assert cfg.resolved["importance"] == {
        "attention_head": {"family": "uniform"},
        "mlp_neuron": DEFAULTS["importance"]["mlp_neuron"],
    }
    mlp = cfg.importance.dist_for(ChunkKind.MLP_NEURON)
    assert dataclasses.asdict(mlp) == DEFAULTS["importance"]["mlp_neuron"]
    empty = write_config(tmp_path, "importance: {}\n", "empty.yaml")
    assert load_config(empty).resolved == DEFAULTS
    # Every scored kind draws from a distribution, so the sweep runs.
    assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_seed_and_out_overrides(small_config):
    cfg = load_config(small_config, seed=99, out="elsewhere")
    assert cfg.seed == 99
    assert cfg.importance.seed == 99
    assert cfg.output_dir == "elsewhere"


def test_config_ladder_is_constructed(tmp_path):
    path = write_config(
        tmp_path,
        "ladder:\n"
        "  - {name: FP16, exp_bits: 5, man_bits: 10}\n"
        "  - {name: FP0, exp_bits: 0, man_bits: 0}\n"
        "solver: {gains: [0.1], exponents: [1.0]}\n",
    )
    cfg = load_config(path)
    assert [f.total_bits for f in cfg.ladder] == [16, 0]


def test_config_bad_bias_rejected(tmp_path):
    # A rung's bias follows from its exponent width; no key can set it.
    path = write_config(
        tmp_path,
        "ladder:\n"
        "  - {name: FP16, exp_bits: 5, man_bits: 10, bias: 14}\n"
        "  - {name: FP0, exp_bits: 0, man_bits: 0}\n",
    )
    with pytest.raises(ValueError, match=re.escape("unknown config key 'ladder[0].bias'")):
        load_config(path)


def test_empty_targets_rejected(tmp_path):
    path = write_config(tmp_path, "targets: []\n")
    with pytest.raises(ValueError, match="targets"):
        load_config(path)


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# (config text, part of its one-line error)
BAD_CONFIGS = [
    ('dram:\n  channels: "4"\n', "'dram.channels' must be an integer, got '4'"),
    ("geometry:\n  layers: 1.5\n", "'geometry.layers' must be an integer, got 1.5"),
    ("dram:\n  clock_ns: fast\n", "'dram.clock_ns' must be a number"),
    ("targets: [1.6, eight]\n", "'targets[1]' must be a number"),
    ("importance:\n  attention_head: {a: two, family: beta}\n",
     "'importance.attention_head.a' must be a number"),
    # The burst is a fixed 64-byte block, not a key.
    ("dram:\n  burst_bytes: 64\n", "unknown config key 'dram.burst_bytes'"),
    # Representable in YAML, not in the memory model.
    ("dram:\n  t_ccd_s: 4\n", "t_ccd_s must be at least the 8-cycle burst"),
    # Syntax errors name the line they start on, in the words of
    # PyYAML's pure-Python parser whether or not libyaml is present.
    ("seed: [1\n", "line 1 ('seed: [1'): expected ',' or ']'"),
    ("seed: 1: 2\n", "line 1 ('seed: 1: 2'): mapping values are not allowed here"),
    ("targets:\n\t- 1.6\n", "line 2 ('- 1.6'): found character '\\t' that cannot start"),
    ("ladder:\n  - {name: FP16, exp_bits: 5}\n  - {name: FP0, exp_bits: 0, man_bits: 0}\n",
     "ladder[0] needs 'man_bits'"),
    ("ladder:\n  - {name: FP16, exp_bits: 5, man_bits: 10, extra: 1}\n"
     "  - {name: FP0, exp_bits: 0, man_bits: 0}\n",
     "unknown config key 'ladder[0].extra'"),
    ("solver: {gains: [], exponents: []}\n", "config key 'solver.gains' must not be empty"),
    # Only the skip rung has no exponent.
    ("ladder:\n  - {name: FP16, exp_bits: 5, man_bits: 10}\n"
     "  - {name: M3, exp_bits: 0, man_bits: 3}\n  - {name: FP0, exp_bits: 0, man_bits: 0}\n"
     "solver: {gains: [0.1, 0.1], exponents: [1.0, 1.0]}\n",
     "M3: exp_bits must be in 1..5"),
    # Without a skip rung, chunks below the last cut would get FP8
    # while the solver counted them as 0 bits.
    ("ladder:\n  - {name: FP16, exp_bits: 5, man_bits: 10}\n"
     "  - {name: FP8, exp_bits: 5, man_bits: 2}\n"
     "solver: {gains: [0.1], exponents: [1.0]}\ntargets: [4.0]\n",
     "ladder must end in a skip level (0 bits), not FP8"),
    # Every parameter a family reads must be in the config it embeds.
    ("importance:\n  attention_head: {family: beta}\n", "importance.attention_head needs 'a', 'b'"),
    ("importance:\n  mlp_neuron: {family: beta, a: 2.0}\n", "importance.mlp_neuron needs 'b'"),
    ("importance:\n  attention_head: {family: two_point}\n",
     "importance.attention_head needs 'mix'"),
    ("importance:\n  mlp_neuron: {family: beta_mixture, a: 2.0, b: 2.0, mix: 0.5, a_lo: 1.0}\n",
     "importance.mlp_neuron needs 'b_lo'"),
    # ... and no parameter it does not read, which would ride along in
    # the report without deciding a score.
    ("importance:\n  attention_head: {family: uniform, a: 3.0, mix: 0.9}\n",
     "importance.attention_head: family 'uniform' does not read 'a'"),
    ("importance:\n  mlp_neuron: {family: two_point, mix: 0.5, b: 2.0}\n",
     "importance.mlp_neuron: family 'two_point' does not read 'b'"),
    # Nothing to load: the predictor fraction would divide by zero.
    ("geometry: {heads_per_layer: 0, neurons_per_layer: 0, predictor_weights_per_layer: 0}\n",
     "geometry holds no weights"),
    # YAML's .nan and .inf are floats; no report field may carry them.
    ("dram:\n  clock_ns: .nan\n", "config key 'dram.clock_ns' must be finite, got nan"),
    ("dram:\n  e_rd_pj: .inf\n", "config key 'dram.e_rd_pj' must be finite, got inf"),
    ("solver: {gains: [.nan, 0.0569, 0.0549, 0.0068, 0.0031]}\n",
     "config key 'solver.gains[0]' must be finite, got nan"),
    ("importance:\n  mlp_neuron: {a: .nan, b: 2.0, family: beta}\n",
     "config key 'importance.mlp_neuron.a' must be finite, got nan"),
    # Two rungs of one name would merge in the report's format counts.
    ("ladder:\n  - {name: FP16, exp_bits: 5, man_bits: 10}\n"
     "  - {name: X, exp_bits: 5, man_bits: 6}\n  - {name: X, exp_bits: 5, man_bits: 2}\n"
     "  - {name: FP0, exp_bits: 0, man_bits: 0}\n"
     "solver: {gains: [0.1, 0.1, 0.1], exponents: [1.0, 1.0, 1.0]}\n",
     "ladder names 'X' twice"),
    # importance's keys are the scored kinds: predictors ride the top rung
    # and draw no score, and no one distribution stands in for every kind.
    ("importance:\n  predictor: {family: uniform}\n  attention_head: {family: uniform}\n",
     "unknown config key 'importance.predictor'"),
    ("importance:\n  foo: {family: uniform}\n", "unknown config key 'importance.foo'"),
    ("importance:\n  default: {family: uniform}\n", "unknown config key 'importance.default'"),
    # numpy's generators take no negative seed.
    ("seed: -3\n", "config key 'seed' must be non-negative, got -3"),
    # The run table holds channel and bank ids as int16, columns as int32.
    ("dram:\n  banks_per_channel: 40000\n", "banks_per_channel must be below 32768, got 40000"),
    ("dram:\n  channels: 32768\n", "channels must be below 32768, got 32768"),
    ("dram:\n  row_bytes: 137438953472\n",
     "row_bytes must be below 137438953472, got 137438953472"),
    # Timings below 2**31 keep issue cycles within int64.
    ("dram: {t_rp: 4000000000000000000}\n",
     "t_rp must be below 2147483648, got 4000000000000000000"),
    ("dram: {t_rcd: 100000000000000000, t_ras: 100000000000000000,"
     " t_cl: 100000000000000000}\n",
     "t_rcd must be below 2147483648, got 100000000000000000"),
    # Finite constants whose products overflow: no report field may be inf.
    ("dram: {clock_ns: 1.0e+300}\n", "the simulated background energy is inf"),
    ("dram: {p_bg_mw: 1.0e+308}\n", "the simulated background energy is inf"),
    ("dram: {e_act_pj: 1.0e+308}\n", "the simulated activation energy is inf"),
    ("dram: {e_act_pj: 1.0e+303}\n", "a tag's simulated energy is not finite"),
    # The guard's errors name the config's own keys.
    ("guard: {exp_bits: 3}\n", "guard exp_bits must be in 0..2, got 3"),
    ("guard: {man_bits: 3}\n", "guard man_bits must be in 0..2, got 3"),
]


@pytest.mark.parametrize("text, message", BAD_CONFIGS)
def test_bad_config_values_are_one_line_errors(tmp_path, capsys, text, message):
    path = write_config(tmp_path, text)
    assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert message in one_line_error(capsys)


@pytest.mark.parametrize("command", [["pack", "--count", "64"], ["compare"]], ids=lambda c: c[0])
def test_negative_seed_flag_names_its_key(tmp_path, capsys, command):
    assert main([*command, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    assert "config key 'seed' must be non-negative, got -1" in one_line_error(capsys)


@pytest.mark.parametrize("text", [text for text, _ in BAD_CONFIGS])
def test_config_errors_do_not_depend_on_libyaml(tmp_path, capsys, monkeypatch, text):
    # libyaml parses when PyYAML has it; the messages stay the pure
    # parser's either way.
    path = write_config(tmp_path, text)
    argv = ["compare", "--config", path, "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    with_libyaml = one_line_error(capsys)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert main(argv) == 1
    assert one_line_error(capsys) == with_libyaml


def test_config_data_do_not_depend_on_libyaml(monkeypatch):
    with_libyaml = load_config(str(DEFAULT_YAML)).resolved
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_config(str(DEFAULT_YAML)).resolved == with_libyaml


def config_nodes(node=DEFAULTS, path=()):
    """(path, default) for every value below the root of DEFAULTS, a path
    being the keys and list indices that reach it."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield path + (key,), child
        if isinstance(child, (dict, list)):
            yield from config_nodes(child, path + (key,))


def key_name(path) -> str:
    """A node's name in the config's errors: 'ladder[0].name'."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def load_with(tmp_path, path, value):
    """Load the defaults written out in full, the node at ``path`` set to ``value``."""
    data = copy.deepcopy(DEFAULTS)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return load_config(write_config(tmp_path, yaml.safe_dump(data)))


SCALARS = [(path, leaf) for path, leaf in config_nodes() if not isinstance(leaf, (dict, list))]
SECTIONS = [(path, node) for path, node in config_nodes() if isinstance(node, (dict, list))]
WRONG_TYPES = {
    str: ("a string", [1, None, 2.0]),
    int: ("an integer", ["1", 1.5, True, None]),
    float: ("a number", ["1.0", False, [1.0]]),
}


@pytest.mark.parametrize("path, leaf", SCALARS, ids=[key_name(p) for p, _ in SCALARS])
def test_every_scalar_key_takes_only_its_type(tmp_path, path, leaf):
    want, values = WRONG_TYPES[type(leaf)]
    for value in values:
        message = f"config key '{key_name(path)}' must be {want}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_with(tmp_path, path, value)
    if isinstance(leaf, float):
        for value in (math.nan, math.inf, -math.inf):
            message = f"config key '{key_name(path)}' must be finite, got {value!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                load_with(tmp_path, path, value)


@pytest.mark.parametrize("path, node", SECTIONS, ids=[key_name(p) for p, _ in SECTIONS])
def test_every_section_rejects_null(tmp_path, path, node):
    want = "a mapping" if isinstance(node, dict) else "a list"
    message = f"config key '{key_name(path)}' must be {want}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_with(tmp_path, path, None)


def test_resolved_config_shares_nothing(small_config):
    before = copy.deepcopy(DEFAULTS)
    for cfg in (load_config(), load_config(str(DEFAULT_YAML)), load_config(small_config)):
        cfg.resolved["ladder"][0]["name"] = "changed"
        cfg.resolved["dram"]["t_rcd"] = 1
        cfg.resolved["targets"][0] = 0.5
        cfg.resolved["solver"]["gains"].append(1.0)
        next(iter(cfg.resolved["importance"].values()))["family"] = "changed"
    assert DEFAULTS == before
    assert load_config().resolved == before


FP16_RUNG = "  - {name: FP16, exp_bits: 5, man_bits: 10}\n"
FP8_RUNG = "  - {name: FP8, exp_bits: 5, man_bits: 2}\n"
SKIP_RUNG = "  - {name: FP0, exp_bits: 0, man_bits: 0}\n"
TWO_TERMS = "solver: {gains: [0.1, 0.1], exponents: [1.0, 1.0]}\n"


@pytest.mark.parametrize(
    "command", [["regions"], ["pack", "--count", "64"], ["compare"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize(
    "text, message",
    [
        ("ladder:\n" + FP8_RUNG + FP16_RUNG + SKIP_RUNG + TWO_TERMS,
         "ladder must be strictly decreasing in width"),
        ("ladder:\n" + FP16_RUNG + FP16_RUNG + SKIP_RUNG + TWO_TERMS,
         "ladder must be strictly decreasing in width"),
        ("ladder:\n" + FP16_RUNG + FP8_RUNG + "solver: {gains: [0.1], exponents: [1.0]}\n",
         "ladder must end in a skip level (0 bits), not FP8"),
        ("ladder:\n" + SKIP_RUNG + "solver: {gains: [0.1], exponents: [1.0]}\n",
         "ladder needs a top format and a skip level"),
        ("solver: {gains: [0.1], exponents: [1.0]}\n",
         "solver needs 5 gains and exponents for a 6-rung ladder, got 1"),
        ("ladder:\n" + FP16_RUNG + SKIP_RUNG,
         "solver needs 1 gains and exponents for a 2-rung ladder, got 5"),
    ],
    ids=["widening", "repeated", "no-skip", "skip-only", "short-profile", "long-profile"],
)
def test_every_command_checks_the_ladder_and_profile(tmp_path, capsys, command, text, message):
    # The ladder and the solver profile are checked where the config is
    # built, so commands that never solve reject them too.
    path = write_config(tmp_path, text)
    assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert message in one_line_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--config", "c.yaml", "r.json"],
        ["report", "--seed", "3", "r.json"],
        ["report", "--out", "o", "r.json"],
        ["sim", "--seed", "3", "t.txt"],
        ["sim", "--out", "o", "t.txt"],
        ["regions", "--seed", "3"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


@pytest.mark.parametrize("count", [CODEC_BLOCK - 1, CODEC_BLOCK, CODEC_BLOCK + 1])
def test_pack_seeded_in_blocks_equals_one_draw(small_config, tmp_path, count):
    # pack draws the seeded words one block at a time; the image must
    # hold the words one draw of all of them gives.
    path = tmp_path / "model.sqbp"
    assert main(["pack", "--config", small_config, "--count", str(count), "--image", str(path)]) == 0
    seed = load_config(small_config).seed
    words = np.random.default_rng(seed).standard_normal(count).astype(np.float16).view(np.uint16)
    assert_same_planes(load_image(str(path))[0], reference_pack(words))


def test_pack_out_of_memory_is_one_line_error(tmp_path, capsys, monkeypatch):
    # The plane allocation for 10**12 weights fails the way numpy reports
    # one it cannot make; nothing that large is really requested.
    real_zeros = np.zeros

    def zeros(shape, dtype=float, **kwargs):
        if np.prod(shape, dtype=float) * np.dtype(dtype).itemsize > 2.0**40:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real_zeros(shape, dtype, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    image = tmp_path / "x.sqbp"
    assert main(["pack", "--count", "1000000000000", "--image", str(image)]) == 1
    assert one_line_error(capsys) == (
        "error: out of memory: Unable to allocate an array with shape (16, 125000000000)\n"
    )
    assert not image.exists()


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

    # The word count comes from the file's size, which a device or a pipe
    # does not give.
    assert main(["pack", "--config", small_config, "--weights", os.devnull]) == 1
    assert one_line_error(capsys) == f"error: weight file {os.devnull} is not a regular file\n"


def test_pack_reads_a_weight_file_one_block_at_a_time(tmp_path, capsys):
    # 4M words: the file's 8 MB is never held beside the 8 MB of planes,
    # only one block of it at a time.
    count = 4 * 1024 * 1024
    raw = tmp_path / "w.f16"
    np.random.default_rng(5).integers(0, 1 << 16, count, dtype=np.uint16).tofile(raw)
    image = tmp_path / "w.sqbp"
    tracemalloc.start()
    try:
        assert main(["pack", "--weights", str(raw), "--image", str(image)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    planes = 16 * plane_stride_for(count)
    assert peak < planes + raw.stat().st_size // 2
    assert np.array_equal(unpack_full(load_image(str(image))[0]), np.fromfile(raw, "<u2"))


def test_pack_of_a_weight_file_cut_short_is_one_line_error(tmp_path, capsys, monkeypatch):
    # The file loses its last word after its size was taken.
    raw = tmp_path / "w.f16"
    raw.write_bytes(bytes(2 * CODEC_BLOCK + 2))
    real_pack = cli.pack

    def pack_after_truncation(count, read):
        os.truncate(raw, 2 * count - 2)
        return real_pack(count, read)

    monkeypatch.setattr(cli, "pack", pack_after_truncation)
    image = tmp_path / "w.sqbp"
    assert main(["pack", "--weights", str(raw), "--image", str(image)]) == 1
    count = CODEC_BLOCK + 1
    assert one_line_error(capsys) == (
        f"error: weight file {raw}: ended at word {count - 1} of {count}\n"
    )
    assert not image.exists()


def test_repack_checks_the_count(small_config, tmp_path, capsys):
    # --count is the word count the image must hold, as for --weights.
    image, out = tmp_path / "a.sqbp", tmp_path / "b.sqbp"
    assert main(["pack", "--config", small_config, "--count", "4096", "--image", str(image)]) == 0
    capsys.readouterr()
    repack = ["pack", "--config", small_config, "--repack", str(image), "--image", str(out)]
    assert main([*repack, "--count", "5"]) == 1
    assert one_line_error(capsys) == f"error: size mismatch: {image} holds 4096 words, expected 5\n"
    assert not out.exists()
    assert main([*repack, "--count", "4096"]) == 0
    assert out.read_bytes() == image.read_bytes()


def test_unencodable_ladder_leaves_the_old_image_alone(tmp_path, capsys):
    # A format name longer than the header's 255-byte field is rejected
    # before the destination is opened, so the image there stays whole.
    long_name = write_config(
        tmp_path,
        "ladder:\n"
        "  - {name: FP16, exp_bits: 5, man_bits: 10}\n"
        f"  - {{name: {'F' * 300}, exp_bits: 0, man_bits: 0}}\n"
        "solver: {gains: [0.1], exponents: [1.0]}\n",
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


def _set_rung(whole: bytes, name: bytes, exp_man=None, bias=None) -> bytes:
    """Rewrite the exp_bits and man_bits bytes, or the i16 bias, of the
    ladder entry named name."""
    at = whole.index(bytes([len(name)]) + name) + 1 + len(name)
    if exp_man is not None:
        return whole[:at] + bytes(exp_man) + whole[at + 2 :]
    return whole[: at + 2] + struct.pack("<h", bias) + whole[at + 4 :]


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
        (lambda b: _set_rung(b, b"FP8", exp_man=(0, 3)), "FP8: exp_bits must be in 1..5"),
        # The stored bias must restate the one the widths give.
        (lambda b: _set_rung(b, b"FP16", bias=14), "FP16: bias 14 differs from the derived 15"),
        (lambda b: _set_rung(b, b"FP0", bias=5), "FP0: bias 5 differs from the derived 0"),
        # The ladder rules a config's ladder must follow hold for an image's.
        (lambda b: _set_rung(b, b"FP8", exp_man=(5, 10)), "ladder must be strictly decreasing"),
        (lambda b: _set_rung(_set_rung(b, b"FP0", exp_man=(1, 0)), b"FP0", bias=0),
         "ladder must end in a skip level (0 bits), not FP0"),
        # FP12 renamed FP16: a ladder naming one rung twice.
        (lambda b: b.replace(b"\x04FP12", b"\x04FP16", 1), "ladder names 'FP16' twice"),
    ],
    ids=[
        "huge-count", "huge-count-small-stride", "huge-stride", "no-weights", "trailing",
        "short", "bad-format", "no-exponent", "bad-bias", "bad-skip-bias", "widening-rung",
        "no-skip-rung", "repeated-name",
    ],
)
def test_repack_of_lying_header_is_one_line_error(small_config, tmp_path, capsys, edit, message):
    image = tmp_path / "a.sqbp"
    assert main(["pack", "--config", small_config, "--count", "64", "--image", str(image)]) == 0
    capsys.readouterr()
    image.write_bytes(edit(image.read_bytes()))
    assert main(["pack", "--config", small_config, "--repack", str(image)]) == 1
    assert one_line_error(capsys).startswith(f"error: {image}: {message}")


def _dirty_padding(whole: bytes, count: int, rng) -> bytes:
    """An image file's bytes with every plane bit past count set at random."""
    stride = plane_stride_for(count)
    head = len(whole) - NUM_PLANES * stride
    planes = np.frombuffer(whole, np.uint8, offset=head).reshape(NUM_PLANES, stride).copy()
    garbage = rng.integers(0, 256, planes.shape, dtype=np.uint8)
    used, tail = divmod(count, 8)
    if tail:
        pad = np.uint8(0xFF >> tail)  # the bits of byte `used` past the last weight
        planes[:, used] = planes[:, used] & ~pad | garbage[:, used] & pad
        used += 1
    planes[:, used:] = garbage[:, used:]
    return whole[:head] + planes.tobytes()


@pytest.mark.parametrize("count", [1, 7, 8, 9, 1001, 65535, 65536, 65537, 70001])
def test_loaded_padding_is_zero_whatever_the_file_holds(small_config, tmp_path, count):
    # An image loads as the planes the reference codec packs from its
    # words, and its repack writes the clean image's bytes.  65536 weights
    # fill their 8192-byte planes, so that image has no padding to dirty.
    rng = np.random.default_rng(count)
    words = rng.integers(0, 1 << 16, count, dtype=np.uint16)
    raw, clean = tmp_path / "w.f16", tmp_path / "clean.sqbp"
    dirty, out = tmp_path / "dirty.sqbp", tmp_path / "out.sqbp"
    words.astype("<u2").tofile(raw)
    pack = ["pack", "--config", small_config]
    assert main([*pack, "--weights", str(raw), "--image", str(clean)]) == 0
    whole = clean.read_bytes()
    dirtied = _dirty_padding(whole, count, rng)
    dirty.write_bytes(dirtied)
    stride = plane_stride_for(count)
    planes = np.frombuffer(dirtied[-NUM_PLANES * stride :], np.uint8).reshape(NUM_PLANES, stride)
    # Only padding changed: the file's planes still decode to the words.
    assert np.array_equal(reference_unpack_full(BitPlaneImage(count, planes)), words)
    assert (dirtied != whole) == (8 * stride > count)

    image, _ = load_image(str(dirty))
    assert np.array_equal(unpack_full(image), words)
    assert_same_planes(image, reference_pack(reference_unpack_full(image)))
    assert main([*pack, "--repack", str(dirty), "--image", str(out)]) == 0
    assert out.read_bytes() == whole


def test_repack_in_place_and_of_a_truncated_source(small_config, tmp_path, capsys):
    # The source is read whole before the target is unlinked, so a repack
    # onto itself rewrites the image, and a failed load leaves the target.
    image, other = tmp_path / "a.sqbp", tmp_path / "b.sqbp"
    pack = ["pack", "--config", small_config]
    assert main([*pack, "--count", "70001", "--image", str(image)]) == 0
    assert main([*pack, "--count", "1001", "--image", str(other)]) == 0
    clean, kept = image.read_bytes(), other.read_bytes()
    in_place = [*pack, "--repack", str(image), "--image", str(image)]
    assert main(in_place) == 0
    assert image.read_bytes() == clean
    image.write_bytes(_dirty_padding(clean, 70001, np.random.default_rng(0)))
    assert main(in_place) == 0
    assert image.read_bytes() == clean
    capsys.readouterr()

    cut = tmp_path / "cut.sqbp"
    cut.write_bytes(clean[:-1])
    assert main([*pack, "--repack", str(cut), "--image", str(other)]) == 1
    assert one_line_error(capsys) == f"error: {cut}: truncated plane data\n"
    assert other.read_bytes() == kept


def test_repack_source_that_cannot_be_opened_names_its_role(small_config, tmp_path, capsys):
    out = tmp_path / "out.sqbp"
    for source, code in ((tmp_path, errno.EISDIR), (tmp_path / "missing.sqbp", errno.ENOENT)):
        argv = ["pack", "--config", small_config, "--repack", str(source), "--image", str(out)]
        assert main(argv) == 1
        assert one_line_error(capsys) == (
            f"error: cannot read image: [Errno {code}] {os.strerror(code)}: '{source}'\n"
        )
    assert not out.exists()


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


def test_trace_assignment_csv_matches_per_chunk_rows(tmp_path, capsys):
    # The shipped config: per-kind score mixtures, predictor chunks, and
    # every ladder rung in use at 4.8 bits.
    out = tmp_path / "out"
    assert main(
        ["trace", "--config", str(DEFAULT_YAML), "--out", str(out), "--target", "4.8"]
    ) == 0
    capsys.readouterr()
    cfg = load_config(str(DEFAULT_YAML))
    directory = enumerate_chunks(cfg.geometry)
    rows = chunks(directory)
    scores = reference_gen_scores(rows, cfg.importance)
    thresholds, _ = solve_assignment(directory, scores, 4.8, cfg.ladder, cfg.band_profile)
    lines = ["chunk_id,kind,score,format"]
    scored = iter(scores.tolist())
    for chunk in rows:
        if chunk.kind is ChunkKind.PREDICTOR:
            score, fmt = "", cfg.ladder[0]
        else:
            value = next(scored)
            score, fmt = f"{value:.10g}", format_for(thresholds, value)
        lines.append(f"{chunk.chunk_id},{chunk.kind.value},{score},{fmt.name}")
    assert len(lines) == 1 + 1042
    assert (out / "assignment_4.8.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


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
    cfg = load_config(config)
    directory = enumerate_chunks(cfg.geometry)
    scores = gen_scores(directory, cfg.importance)
    _, assignment = solve_assignment(directory, scores, 4.8, cfg.ladder, cfg.band_profile)
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


# A gap, a size change, a tag change and an untagged line between two
# pairs of back-to-back lines.
HAND_TRACE = "0 64 a\n64 64 a\n128 64 b\n256 128 b\n384 64\n1048576 64 a\n1048640 64 a\n"


def test_the_hand_trace_reads_one_row_per_line(tmp_path, capsys):
    path = tmp_path / "hand.txt"
    path.write_text(HAND_TRACE)
    trace = parse_trace(str(path))
    lines = [line.split() for line in HAND_TRACE.splitlines()]
    assert trace == Trace(
        [int(f[0]) for f in lines],
        [int(f[1]) for f in lines],
        [("a", "b").index(f[2]) if len(f) == 3 else -1 for f in lines],
        ("a", "b"),
    )
    assert render_trace(trace) == HAND_TRACE
    assert main(["sim", str(path)]) == 0
    sim = json.loads(capsys.readouterr().out)
    # Seven lines, eight 64-byte reads: the 128-byte line is two.
    assert {k: sim[k] for k in ("requests", "num_reads", "num_acts", "bytes_transferred")} == {
        "requests": 8, "num_reads": 8, "num_acts": 5, "bytes_transferred": 512,
    }
    assert sim["total_cycles"] == 187


@pytest.fixture(scope="module")
def default_trace_files(tmp_path_factory):
    """The directory `planestore trace --target 8` writes on the built-in
    defaults."""
    out = tmp_path_factory.mktemp("traces")
    assert main(["trace", "--out", str(out), "--target", "8"]) == 0
    return out


@pytest.mark.parametrize("mode", ["bitplane", "traditional"])
def test_default_trace_files_round_trip_through_rows(default_trace_files, mode):
    path = default_trace_files / f"trace_{mode}_8.txt"
    assert render_trace(parse_trace(str(path))) == path.read_text()


def test_the_traditional_file_is_one_line_per_extent(default_trace_files):
    # One line per loaded chunk, its FP16 extent, read as one row.
    path = default_trace_files / "trace_traditional_8.txt"
    trace = parse_trace(str(path))
    assert path.read_text().count("\n") == trace.addr.size == 801
    assert len(trace) == 198_396
    config = load_config().dram
    runs, _ = plan(config, trace)
    # A run table row per run, and a command table row per run and per
    # PRE or ACT, not per read.
    assert len(runs) == 4_685
    assert len(expand(config, runs, DramState.initial(config))) == 8_469
    assert simulate(config, trace).num_reads == 198_396


@pytest.mark.parametrize("mode, reads", [("bitplane", 132_288), ("traditional", 198_396)])
def test_a_per_block_trace_file_simulates_the_same(
    default_trace_files, tmp_path, capsys, mode, reads
):
    # Trace files once held one line per 64-byte block.  Such a file
    # still reads, a row per line, and simulates to the same result.
    path = default_trace_files / f"trace_{mode}_8.txt"
    blocks = []
    for line in path.read_text().splitlines():
        addr, size, tag = line.split()
        blocks += [f"{a} 64 {tag}\n" for a in range(int(addr), int(addr) + int(size), 64)]
    per_block = tmp_path / "per_block.txt"
    per_block.write_text("".join(blocks))
    assert len(blocks) == reads
    results = []
    for trace in (path, per_block):
        assert main(["sim", str(trace)]) == 0
        results.append(json.loads(capsys.readouterr().out))
        del results[-1]["trace"]
    assert results[0] == results[1]


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


# Good lines (a tab, a blank line, a spare blank between fields, an
# untagged line) before the bad one, so each message names a line past
# the first.
GOOD_LINES = "0 64 a\n64\t64 b\n\n  128 64   a\n192 64\n"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("256 64 a extra", "expected 'byte_addr len_bytes tag', got '256 64 a extra'"),
        ("256", "expected 'byte_addr len_bytes tag', got '256'"),
        ("256 6x4 a", "non-numeric address or length"),
        ("256 64.0", "non-numeric address or length"),
        ("4611686018427387904 64 a", "address or length out of range"),
        ("256 -4611686018427387904", "address or length out of range"),
        ("256 30 a", "request [256, +30) not 64B-granular"),
        ("256 0 a", "request [256, +0) not 64B-granular"),
        ("-64 64 b", "request [-64, +64) starts at a negative address"),
        ("4611686018427387903 64 a", "request [4611686018427387903, +64) not 64B-granular"),
    ],
)
def test_trace_errors_name_the_bad_line(tmp_path, bad, message):
    # The bad line is line 6, followed by good lines; CRLF line ends
    # number the same.
    path = tmp_path / "bad.txt"
    for newline in ("\n", "\r\n"):
        text = GOOD_LINES + bad + "\n320 64 a\n"
        path.write_bytes(text.replace("\n", newline).encode())
        with pytest.raises(ValueError) as got:
            parse_trace(str(path))
        assert str(got.value) == f"{path}:6: {message}"


def test_sim_rejects_non_finite_results(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("0 64 a\n")
    config = write_config(tmp_path, "dram: {clock_ns: 1.0e+305}\n")
    assert main(["sim", "--config", config, str(trace)]) == 1
    assert "the simulated background energy is inf" in one_line_error(capsys)


# --------------------------------------------------------------- compare


def run_compare(config, out, capsys):
    assert main(["compare", "--config", config, "--out", str(out)]) == 0
    return capsys.readouterr().out


# sha256 of the report `planestore compare --out out` writes on the
# built-in defaults.  A change that only makes the program faster must
# leave these bytes alone.
DEFAULT_REPORT_SHA256 = "6e36b7ce517b4c030844f2c677657431f15e8cf6d7b242ab2b99556964b02b43"


@pytest.fixture(scope="module")
def default_report(tmp_path_factory):
    """The bytes `planestore compare --out out` writes on the built-in
    defaults, run from an empty directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("default"))
        assert main(["compare", "--out", "out"]) == 0
        return Path("out", "comparison.json").read_bytes()


def test_default_report_bytes_are_pinned(default_report):
    assert hashlib.sha256(default_report).hexdigest() == DEFAULT_REPORT_SHA256


def test_compare_crosses_each_traced_boundary_once_per_mode(default_report, tmp_path):
    # benchmarks/tracer.py wraps these names and books one series entry
    # per call: a default compare calls each once per (target, mode),
    # inside that mode's run_mode, and dram.schedule is still there to
    # wrap.  A second simulate call per trace would put the traced
    # dram.bursts series out of step with the report.
    from planestore import dram, experiment

    assert callable(dram.schedule)
    log = []

    def logged(module, name):
        inner = getattr(module, name)

        def call(*args, **kwargs):
            log.append(args[2] if name == "run_mode" else name)
            return inner(*args, **kwargs)

        return call

    boundaries = ["gen_trace", "simulate", "energy_breakdown", "chunk_latency_deltas"]
    with pytest.MonkeyPatch.context() as patch:
        for name in ["run_mode", *boundaries]:
            module = dram if name == "simulate" else experiment
            patch.setattr(module, name, logged(module, name))
        patch.chdir(tmp_path)
        assert main(["compare", "--out", "out"]) == 0
        assert Path("out", "comparison.json").read_bytes() == default_report
    per_mode = [["bitplane", *boundaries], ["traditional", *boundaries]]
    assert log == sum(per_mode, []) * len(DEFAULTS["targets"])


def test_default_report_requests_are_64_byte_reads(default_report):
    # In both modes a request is one 64-byte read: the bytes over 64, and
    # the read count the read energy gives back.
    e_rd_pj = DEFAULTS["dram"]["e_rd_pj"]
    for entry in json.loads(default_report)["targets"]:
        for mode in entry["modes"].values():
            assert mode["requests"] * 64 == mode["bytes"]
            assert mode["requests"] == round(mode["energy_breakdown_pj"]["read"] / e_rd_pj)


def test_default_report_averages_land_on_their_targets(default_report):
    # The target and the achieved average are one unit: bits per
    # non-predictor weight, so the solver's tolerance holds in the report.
    entries = json.loads(default_report)["targets"]
    assert [entry["target_bits"] for entry in entries] == DEFAULTS["targets"]
    for entry in entries:
        assert "solver_target_bits" not in entry
        assert abs(entry["achieved_avg_bits"] - entry["target_bits"]) <= 0.05


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
    # compare and trace quote the value given and the range over the
    # non-predictor weights.
    cfg = write_config(tmp_path, SMALL_YAML.replace("targets: [4.8, 8.0]", "targets: [99]"))
    for command in (["compare"], ["trace", "--target", "99"]):
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: target 99.0 bits/weight is outside the achievable range [")
        assert err.endswith(", 16.000]\n")


def test_predictor_only_geometry_takes_any_target(tmp_path, capsys):
    # With no scored chunks the cuts decide nothing: every target gives
    # the same assignment, all FP16.
    cfg = write_config(tmp_path, (
        "geometry: {layers: 1, heads_per_layer: 0, neurons_per_layer: 0,\n"
        "           predictor_weights_per_layer: 4096}\n"
    ))
    assert main(["trace", "--config", cfg, "--target", "99", "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "assignment_99.csv").read_text().splitlines()[1:] == [
        "0,predictor,,FP16"
    ]


def test_achieved_average_leaves_the_predictors_out(tmp_path, capsys):
    # Predictors ride the top rung, here 12 bits wide, and the report's
    # average counts only the other weights.
    text = (
        "ladder:\n"
        "  - {name: FP12, exp_bits: 5, man_bits: 6}\n"
        "  - {name: FP8, exp_bits: 5, man_bits: 2}\n"
        "  - {name: FP0, exp_bits: 0, man_bits: 0}\n"
        "solver: {gains: [0.0646, 0.0569], exponents: [0.7944, 0.7475]}\n"
        "targets: [6.0]\n"
    )
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["compare", "--config", path, "--out", str(out)]) == 0
    [entry] = json.loads((out / "comparison.json").read_text())["targets"]
    assert abs(entry["achieved_avg_bits"] - 6.0) <= 0.05
    cfg = load_config(path)
    directory = enumerate_chunks(cfg.geometry)
    # `trace` solves through the same step.
    scores = gen_scores(directory, cfg.importance)
    _, assignment = solve_assignment(directory, scores, 6.0, cfg.ladder, cfg.band_profile)
    assert avg_bits(assignment, directory) == entry["achieved_avg_bits"]
    scored = directory.kind != KIND_LABELS.index(ChunkKind.PREDICTOR)
    widths = np.array([fmt.total_bits for fmt in cfg.ladder])
    bits = int(directory.length[scored] @ widths[assignment.codes[scored]])
    assert bits / int(directory.length[scored].sum()) == entry["achieved_avg_bits"]


# The default geometry with 40M predictor weights a layer: 91 % of all.
PREDICTOR_HEAVY = ModelGeometry(2, 8, 36864, 512, 7200, 40_000_000)


def test_target_above_the_top_rung_is_unreachable_at_any_predictor_share():
    cfg = load_config()
    directory = enumerate_chunks(PREDICTOR_HEAVY)
    scores = gen_scores(directory, cfg.importance)
    message = r"^target 16\.4 bits/weight is outside the achievable range \[0\.000, 16\.000\]$"
    with pytest.raises(ValueError, match=message):
        solve_assignment(directory, scores, 16.4, cfg.ladder, cfg.band_profile)


@pytest.mark.parametrize("predictor", [0, 4_000_000, 40_000_000])
def test_solver_tolerance_is_a_twentieth_of_a_bit_per_non_predictor_weight(predictor):
    # The achievable averages run from 0 (every scored chunk skipped)
    # to 16 (every scored chunk FP16), whatever share of the weights
    # predictors hold.
    cfg = load_config()
    geometry = dataclasses.replace(PREDICTOR_HEAVY, predictor_weights_per_layer=predictor)
    directory = enumerate_chunks(geometry)
    scores = gen_scores(directory, cfg.importance)

    def solve(target):
        _, assignment = solve_assignment(directory, scores, target, cfg.ladder, cfg.band_profile)
        return avg_bits(assignment, directory)

    assert solve(0.0) == 0.0
    assert solve(-0.04) == 0.0 and solve(16.04) == 16.0
    for target in (-0.06, 16.06):
        with pytest.raises(ValueError, match="achievable range"):
            solve(target)


def test_chunk_latency_deltas_telescope_to_total():
    geometry = ModelGeometry(1, 4, 8192, 8, 4096, 4096)
    directory = enumerate_chunks(geometry)
    cfg = load_config()
    scores = gen_scores(directory, cfg.importance)
    _, assignment = solve_assignment(directory, scores, 6.0, cfg.ladder, cfg.band_profile)
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
    config = dram(clock_ns=1.0)
    trace = Trace([0, 256, 512, 768, 64, 1024], [64] * 6, chunk=[0, 0, 0, 0, 0, 1])
    result = simulate(config, trace)
    _, per_request = reference_simulate(config, schedule(config, trace))
    assert per_request.completion == (76, 88, 100, 112, 76, 124)
    assert result.completion.tolist() == list(per_request.completion)
    # One entry per directory chunk; chunk 2 has no rows.
    assert chunk_latency_deltas(trace, result, config, 3).tolist() == [112.0, 12.0, 0.0]
    untagged = Trace([0], [64])
    with pytest.raises(ValueError, match="trace row 0 loads no chunk"):
        chunk_latency_deltas(untagged, simulate(config, untagged), config, 1)
    # A result simulated from another trace counts rows this one lacks.
    short = Trace([0, 256], [64] * 2, chunk=[0, 0])
    with pytest.raises(ValueError, match="counts 6 trace rows, but the trace has 2"):
        chunk_latency_deltas(short, result, config, 3)


@pytest.mark.parametrize("first, then", [(0, 1), (1, 0)])
def test_chunk_latency_charges_a_revisited_chunk_once(first, then):
    # The first chunk's rows come in two segments around the other's:
    # its reads on channels 0 and 1 both finish at cycle 76, and the
    # other's read opens another row of channel 0's bank 0 and finishes
    # at 187.  Chunks are charged in the order the trace first names
    # them, whatever their ids.
    config = dram(clock_ns=1.0)
    trace = Trace([0, 1 << 20, 64], [64] * 3, chunk=[first, then, first])
    result = simulate(config, trace)
    _, per_request = reference_simulate(config, schedule(config, trace))
    assert per_request.completion == (76, 187, 76)
    deltas = chunk_latency_deltas(trace, result, config, 2)
    assert deltas[[first, then]].tolist() == [76.0, 111.0]
    assert deltas.sum() == result.total_ns


def test_sim_of_trace_files_equals_the_compare_entry(tmp_path, capsys):
    # `trace` and `compare` solve the same target in one shared step, so
    # simulating the trace files gives compare's numbers exactly.
    out = tmp_path / "out"
    assert main(["compare", "--out", str(out)]) == 0
    assert main(["trace", "--out", str(out), "--target", "4.8"]) == 0
    capsys.readouterr()
    targets = json.loads((out / "comparison.json").read_text())["targets"]
    [entry] = [entry for entry in targets if entry["target_bits"] == 4.8]
    for mode in ("bitplane", "traditional"):
        assert main(["sim", str(out / f"trace_{mode}_4.8.txt")]) == 0
        sim = json.loads(capsys.readouterr().out)
        want = entry["modes"][mode]
        assert sim["total_ns"] == want["total_latency_ns"]
        assert sim["energy_pj"]["total"] == want["total_energy_pj"]
        assert {k: sim["energy_pj"][k] for k in want["energy_breakdown_pj"]} == (
            want["energy_breakdown_pj"]
        )
        assert sim["bytes_transferred"] == want["bytes"]
        assert sim["requests"] == want["requests"]
        assert sim["energy_by_tag_pj"] == {
            kind: stats["energy_pj"] for kind, stats in want["per_kind"].items()
        }


def test_all_fp8_assignment_halves_bytes():
    geometry = ModelGeometry(1, 8, 8192, 0, 4096, 0)
    directory = enumerate_chunks(geometry)
    assignment = assignment_of((FP8,) * len(directory), (FP8,))
    cfg = load_config()
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


@pytest.mark.parametrize(
    "command, prefix",
    [
        (["compare", "--out", "out", "--config"], "config file"),
        (["sim"], "cannot read trace"),
        (["report"], "corrupted report"),
    ],
)
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, monkeypatch, command, prefix):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"seed: 1\n\xff\n")
    assert main([*command, str(bad)]) == 1
    assert one_line_error(capsys) == (
        f"error: {prefix} {bad}: 'utf-8' codec can't decode byte 0xff"
        " in position 8: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "targets, message",
    [
        ([{}], "missing field 'target_bits'"),
        ([1], "targets[0] is not an object"),
        ([{"target_bits": 4.8, "modes": {"traditional": {}}}], "missing field 'bitplane'"),
    ],
)
def test_report_rejects_malformed_entries(tmp_path, capsys, targets, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": REPORT_SCHEMA_VERSION, "targets": targets}))
    assert main(["report", str(path)]) == 1
    assert f"corrupted report {path}: {message}" in one_line_error(capsys)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("achieved_avg_bits",), "x", "targets[0].achieved_avg_bits is not a number"),
        (("target_bits",), None, "targets[0].target_bits is not a number"),
        (("modes", "bitplane", "bytes"), True, "targets[0].modes.bitplane.bytes is not a number"),
        (
            ("modes", "bitplane", "predictor_byte_share"),
            [0.1],
            "targets[0].modes.bitplane.predictor_byte_share is not a number",
        ),
        (("reductions", "bytes_pct"), "0", "targets[0].reductions.bytes_pct is not a number"),
        (
            ("reductions", "per_kind", "attention_head", "energy_per_weight_pct"),
            "x",
            "targets[0].reductions.per_kind.attention_head.energy_per_weight_pct is not a number",
        ),
        (("reductions", "per_kind"), 5, "targets[0].reductions.per_kind is not an object"),
        (("modes", "traditional"), [], "targets[0].modes.traditional is not an object"),
        # JSON's parser reads NaN and Infinity; no report field may hold them.
        (
            ("reductions", "bytes_pct"),
            math.nan,
            "targets[0].reductions.bytes_pct is not finite, got nan",
        ),
        (
            ("modes", "bitplane", "bytes"),
            math.nan,
            "targets[0].modes.bitplane.bytes is not finite, got nan",
        ),
        (("achieved_avg_bits",), math.inf, "targets[0].achieved_avg_bits is not finite, got inf"),
    ],
)
def test_report_names_a_field_of_the_wrong_type(small_config, tmp_path, capsys, path, value, message):
    out = tmp_path / "out"
    run_compare(small_config, out, capsys)
    report = out / "comparison.json"
    data = json.loads(report.read_text())
    parent = data["targets"][0]
    for key in path[:-1]:
        parent = parent[key]
    assert path[-1] in parent
    parent[path[-1]] = value
    report.write_text(json.dumps(data))
    assert main(["report", str(report)]) == 1
    assert one_line_error(capsys) == f"error: corrupted report {report}: {message}\n"


# Version 2 counted bitplane requests as plane spans, not 64-byte reads.
@pytest.mark.parametrize("version", [REPORT_SCHEMA_VERSION - 1, REPORT_SCHEMA_VERSION + 1])
def test_report_rejects_schema_mismatch(small_config, tmp_path, capsys, version):
    out = tmp_path / "out"
    run_compare(small_config, out, capsys)
    path = out / "comparison.json"
    data = json.loads(path.read_text())
    data["schema_version"] = version
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
