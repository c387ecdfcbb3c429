"""Experiment configuration: one YAML file, fully resolved, embedded in reports.

Every knob the comparison depends on lives here with a checked-in default,
so a report plus its embedded config is enough to rerun the experiment.
Precedence, lowest to highest: built-in defaults, the YAML file, the
PLANESTORE_OUT environment variable (output directory only), then
explicit CLI flags (--seed, --out).
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

import yaml

from .dram import DramConfig
from .quant import GuardConfig, make_format
from .workload import (
    BandProfile,
    ImportanceModel,
    ModelGeometry,
    ScoreDistribution,
)
from .bitplane import ChunkKind

OUTPUT_DIR_ENV = "PLANESTORE_OUT"

# The checked-in default grid: a two-layer scaled stand-in for a large
# decoder (8 heads and 512 neurons per layer, one pinned-width predictor
# block per layer sized so predictors are 1.86% of all weights), swept
# over five non-predictor bits/weight targets.  The importance mixtures
# and band profile were fitted once against the target format mixes and
# are ordinary config values, not derived at runtime.
DEFAULTS: dict = {
    "seed": 1234,
    "targets": [1.6, 3.2, 4.8, 6.4, 8.0],
    "ladder": [
        {"name": "FP16", "exp_bits": 5, "man_bits": 10},
        {"name": "FP12", "exp_bits": 5, "man_bits": 6},
        {"name": "FP8", "exp_bits": 5, "man_bits": 2},
        {"name": "FP6", "exp_bits": 3, "man_bits": 2},
        {"name": "FP4", "exp_bits": 2, "man_bits": 1},
        {"name": "FP0", "exp_bits": 0, "man_bits": 0},
    ],
    "guard": {"exp_bits": 0, "man_bits": 0},
    "geometry": {
        "layers": 2,
        "heads_per_layer": 8,
        "weights_per_head": 36864,
        "neurons_per_layer": 512,
        "weights_per_neuron": 7200,
        "predictor_weights_per_layer": 75456,
    },
    "importance": {
        "attention_head": {
            "family": "beta_mixture",
            "mix": 0.1386,
            "a": 10.4435,
            "b": 2.6144,
            "a_lo": 1.8115,
            "b_lo": 3.2235,
        },
        "mlp_neuron": {
            "family": "beta_mixture",
            "mix": 0.3024,
            "a": 5.7139,
            "b": 1.7849,
            "a_lo": 1.0874,
            "b_lo": 4.7559,
        },
    },
    "solver": {
        "gains": [0.0646, 0.0569, 0.0549, 0.0068, 0.0031],
        "exponents": [0.7944, 0.7475, 0.9899, 1.9866, 2.1518],
    },
    "dram": {
        "channels": 4,
        "banks_per_channel": 32,
        "row_bytes": 8192,
        "burst_bytes": 64,
        "interleave_bytes": 64,
        "clock_ns": 0.4167,
        "t_rcd": 34,
        "t_cl": 34,
        "t_rp": 34,
        "t_ras": 77,
        "t_ccd_l": 12,
        "t_ccd_s": 8,
        "e_act_pj": 11700.0,
        "e_rd_pj": 9090.0,
        "p_bg_mw": 792.0,
    },
    "output": {"dir": "out"},
}

_DIST_KEYS = ("family", "a", "b", "mix", "a_lo", "b_lo")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Typed view of one resolved configuration.

    ``resolved`` is the plain-data mirror that reports embed verbatim;
    the typed fields are built from it and nothing else.
    """

    ladder: tuple
    guard: GuardConfig
    geometry: ModelGeometry
    importance: ImportanceModel
    band_profile: BandProfile
    dram: DramConfig
    targets: tuple
    output_dir: str
    seed: int
    resolved: dict


# Sections whose inner structure varies with a discriminator field are
# replaced wholesale instead of key-merged; partial overrides would mix
# parameters from two different distribution families.
_REPLACE_SECTIONS = ("importance",)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ValueError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {where!r} must be a mapping")
            if not path and key in _REPLACE_SECTIONS:
                out[key] = copy.deepcopy(value)
            else:
                out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _build_distribution(data: dict, where: str) -> ScoreDistribution:
    extra = set(data) - set(_DIST_KEYS)
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)} in {where}")
    if "family" not in data:
        raise ValueError(f"{where} needs a 'family'")
    return ScoreDistribution(**data)


def _check_types(value, default, where: str) -> None:
    """Reject a value whose type differs from the built-in default's.

    An integer field takes an integer, a float field any number, a string
    field a string; lists check each item against the default's first.
    Keys the defaults lack are left to the code that reads them.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config key {where!r} must be a mapping")
        for key, item in value.items():
            if key in default:
                _check_types(item, default[key], f"{where}.{key}" if where else key)
        return
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ValueError(f"config key {where!r} must be a list")
        for index, item in enumerate(value):
            _check_types(item, default[0], f"{where}[{index}]")
        return
    if isinstance(default, float):
        ok, want = isinstance(value, (int, float)), "a number"
    elif isinstance(default, int):
        ok, want = isinstance(value, int), "an integer"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok or isinstance(value, bool):
        raise ValueError(f"config key {where!r} must be {want}, got {value!r}")


def build_config(resolved: dict) -> ExperimentConfig:
    """Typed objects from a fully merged plain-data config."""
    # importance is replaced wholesale, so every entry there, under
    # whatever kind name, follows the shape of one default distribution.
    schema = dict(DEFAULTS)
    schema["importance"] = dict.fromkeys(
        resolved["importance"], DEFAULTS["importance"]["attention_head"]
    )
    _check_types(resolved, schema, "")
    ladder = tuple(
        make_format(
            entry["name"],
            entry["exp_bits"],
            entry["man_bits"],
            entry.get("bias"),
        )
        for entry in resolved["ladder"]
    )
    guard = GuardConfig(resolved["guard"]["exp_bits"], resolved["guard"]["man_bits"])
    geometry = ModelGeometry(**resolved["geometry"])
    dists = {
        ChunkKind(kind): _build_distribution(params, f"importance.{kind}")
        for kind, params in resolved["importance"].items()
        if kind != "default"
    }
    if "default" in resolved["importance"]:
        distribution = _build_distribution(
            resolved["importance"]["default"], "importance.default"
        )
        if dists:
            raise ValueError("importance: give either 'default' or per-kind entries")
    elif dists:
        distribution = dists
    else:
        raise ValueError("importance needs 'default' or per-kind entries")
    importance = ImportanceModel(seed=resolved["seed"], distribution=distribution)
    profile = BandProfile(
        gains=tuple(resolved["solver"]["gains"]),
        exponents=tuple(resolved["solver"]["exponents"]),
    )
    dram = DramConfig(**resolved["dram"])
    targets = tuple(float(t) for t in resolved["targets"])
    if not targets:
        raise ValueError("targets must not be empty")
    return ExperimentConfig(
        ladder=ladder,
        guard=guard,
        geometry=geometry,
        importance=importance,
        band_profile=profile,
        dram=dram,
        targets=targets,
        output_dir=resolved["output"]["dir"],
        seed=resolved["seed"],
        resolved=resolved,
    )


def load_config(
    path: str | None = None,
    seed: int | None = None,
    out: str | None = None,
    env: dict | None = None,
) -> ExperimentConfig:
    """Defaults, then the file, then PLANESTORE_OUT, then explicit flags."""
    env = os.environ if env is None else env
    data: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a mapping")
        data = loaded
    resolved = _merge(DEFAULTS, data)
    if OUTPUT_DIR_ENV in env:
        resolved["output"]["dir"] = env[OUTPUT_DIR_ENV]
    if out is not None:
        resolved["output"]["dir"] = out
    if seed is not None:
        resolved["seed"] = int(seed)
    return build_config(resolved)


def default_config() -> ExperimentConfig:
    return load_config(env={})
