"""Experiment configuration: one YAML file, fully resolved, embedded in reports.

Every knob the comparison depends on lives in DEFAULTS with a checked-in
value, so a report plus its embedded config is enough to rerun the
experiment.  DEFAULTS is also the schema: a file's keys and value types
are those of DEFAULTS, and one walk merges the file over it and checks
it.  Every mapping merges key by key, importance by scored chunk kind;
lists, and each importance entry a file gives, are taken whole.
Precedence, lowest to highest: built-in defaults, the YAML file, then
explicit CLI flags (--seed, --out, where a subcommand takes them).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import yaml

from .dram import DramConfig
from .quant import FpFormat, GuardConfig, check_ladder
from .workload import (
    FAMILY_PARAMETERS,
    BandProfile,
    ImportanceModel,
    ModelGeometry,
    ScoreDistribution,
)
from .bitplane import ChunkKind

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


def _resolve(value, default, where: str = "", whole: bool = False):
    """``value`` merged over ``default`` and checked against its types.

    A mapping takes only its default's keys and keeps the default's value
    for each key it leaves out, so importance keeps the default of each
    kind a file does not name.  A whole entry gives its own keys instead:
    a list item every key of its default, a score distribution (whose
    default has a ``family`` key) its family and every parameter that
    family reads, and no other.  So ScoreDistribution's field defaults
    never decide a result the embedded config does not record, no entry
    mixes two families' parameters, and the embedded config names only
    parameters that decided the scores.  A list must not be empty, and
    each item is a whole entry shaped like the default's first.  An integer field takes
    an integer, a float field any finite number (YAML's .nan and .inf are
    floats too), a string field a string.  The result shares no container
    with either argument.
    """
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config key {where!r} must be a mapping")
        out = {}
        for key, item in value.items():
            at = f"{where}.{key}" if where else key
            if key not in default:
                raise ValueError(f"unknown config key {at!r}")
            out[key] = _resolve(item, default[key], at)
        if "family" in default:
            needs = ("family", *FAMILY_PARAMETERS.get(out.get("family"), ()))
        elif whole:
            needs = default
        else:
            return {
                key: out[key] if key in out else copy.deepcopy(item)
                for key, item in default.items()
            }
        missing = [key for key in needs if key not in out]
        if missing:
            raise ValueError(f"{where} needs {', '.join(map(repr, missing))}")
        family = out.get("family")
        unread = [key for key in out if key not in needs]
        if family in FAMILY_PARAMETERS and unread:
            raise ValueError(f"{where}: family {family!r} does not read {unread[0]!r}")
        return out
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ValueError(f"config key {where!r} must be a list")
        if not value:
            raise ValueError(f"config key {where!r} must not be empty")
        return [
            _resolve(item, default[0], f"{where}[{index}]", whole=True)
            for index, item in enumerate(value)
        ]
    if isinstance(default, float):
        ok, want = isinstance(value, (int, float)), "a number"
    elif isinstance(default, int):
        ok, want = isinstance(value, int), "an integer"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok or isinstance(value, bool):
        raise ValueError(f"config key {where!r} must be {want}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"config key {where!r} must be finite, got {value!r}")
    return value


def build_config(resolved: dict) -> ExperimentConfig:
    """Typed objects from a config `_resolve` has merged and checked."""
    ladder = tuple(FpFormat(**entry) for entry in resolved["ladder"])
    check_ladder(ladder)
    guard = GuardConfig(**resolved["guard"])
    geometry = ModelGeometry(**resolved["geometry"])
    if resolved["seed"] < 0:
        raise ValueError(f"config key 'seed' must be non-negative, got {resolved['seed']}")
    importance = ImportanceModel(
        seed=resolved["seed"],
        distributions={
            ChunkKind(kind): ScoreDistribution(**params)
            for kind, params in resolved["importance"].items()
        },
    )
    profile = BandProfile(
        gains=tuple(resolved["solver"]["gains"]),
        exponents=tuple(resolved["solver"]["exponents"]),
    )
    if len(profile.gains) != len(ladder) - 1:
        raise ValueError(
            f"solver needs {len(ladder) - 1} gains and exponents for a"
            f" {len(ladder)}-rung ladder, got {len(profile.gains)}"
        )
    dram = DramConfig(**resolved["dram"])
    return ExperimentConfig(
        ladder=ladder,
        guard=guard,
        geometry=geometry,
        importance=importance,
        band_profile=profile,
        dram=dram,
        targets=tuple(float(t) for t in resolved["targets"]),
        output_dir=resolved["output"]["dir"],
        seed=resolved["seed"],
        resolved=resolved,
    )


def _yaml_error(exc: yaml.YAMLError, text: str) -> str:
    """One line for a YAML parse error: where it is and what is wrong."""
    mark = getattr(exc, "context_mark", None) or getattr(exc, "problem_mark", None)
    problem = getattr(exc, "problem", None)
    if mark is None or problem is None:
        return " ".join(str(exc).split())
    lines = text.splitlines()
    source = lines[mark.line].strip() if mark.line < len(lines) else ""
    return f"line {mark.line + 1} ({source!r}): {problem}"


def _parse_yaml(text: str):
    """safe_load's data, parsed by libyaml when PyYAML was built with it.

    libyaml words its errors differently, so a document it rejects is
    parsed again by the pure-Python loader, whose data or error stands.
    """
    loader = getattr(yaml, "CSafeLoader", None)
    if loader is not None:
        try:
            return yaml.load(text, Loader=loader)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(text)


def load_config(
    path: str | None = None, seed: int | None = None, out: str | None = None
) -> ExperimentConfig:
    """Defaults, then the file, then explicit flags."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"config file {path}: {exc}") from None
        try:
            loaded = _parse_yaml(text)
        except yaml.YAMLError as exc:
            raise ValueError(f"config file {path}: {_yaml_error(exc, text)}") from None
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {path} must hold a mapping")
        data = loaded
    resolved = _resolve(data, DEFAULTS)
    if out is not None:
        resolved["output"]["dir"] = out
    if seed is not None:
        resolved["seed"] = int(seed)
    return build_config(resolved)
