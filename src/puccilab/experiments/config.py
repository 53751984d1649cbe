"""Strict JSON scenario configs.

Every key is whitelisted per section and per scenario; unknown keys
are rejected so a typo cannot silently run a different study than the
one intended.  Numeric values are stored typed: a finite float, an int
for n_dim, K and n_points, or a list of floats (the sweep lists,
points, center and the affine gradient), so the scenario layer passes
them on as they are.  Values are range-checked here only as far as the
scenario layer needs; module-level preconditions still apply when the
scenario runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from ..errors import ConfigError, GridFileError, InputError
from ..grid import Grid
from .fields import make_field

__all__ = ["ScenarioConfig", "parse_config", "load_config", "SCENARIO_TAGS"]

SCENARIO_TAGS = (
    "solve",
    "class_check",
    "decay",
    "boundary",
    "counterexample",
    "p_sweep",
    "ellipticity_sweep",
    "eps_sweep",
)

_GRID_KEYS = {
    "n_dim",
    "h",
    "tau",
    "spatial_extent",
    "time_extent",
    "half_space",
    "stagger",
}

_OPERATOR_KEYS = {
    "solve": {"kind", "lam", "Lam", "p", "epsilon"},
    "class_check": {"lam", "Lam", "f_bound", "tolerance"},
    "decay": set(),
    "boundary": {"lam"},
    "counterexample": {"delta"},
    "p_sweep": {"p_list", "epsilon"},
    "ellipticity_sweep": {"delta_list"},
    "eps_sweep": {"p", "eps_schedule"},
}

_DATA_KEYS = {"f", "g", "u", "affine_part"}

_ANALYSIS_KEYS = {"eta", "K", "alpha", "c1", "n_points", "points", "center"}

# How each numeric key of the operator and analysis sections is typed.
_FLOAT_KEYS = {"lam", "Lam", "p", "epsilon", "f_bound", "tolerance", "delta", "eta", "alpha", "c1"}
_INT_KEYS = {"K", "n_points"}
_LIST_KEYS = {"p_list", "delta_list", "eps_schedule"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Parsed and validated scenario description, its numbers stored typed.

    data holds the built fields (callables or stored GridFunctions, see
    fields.make_field) and the typed affine_part.
    """

    scenario: str
    grid: Grid
    operator: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    seed: int = 0


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section '{where}'; "
            f"allowed: {sorted(allowed)}"
        )


def _require(section: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"section '{where}' is missing required key(s) {missing}")


def _number(value, where: str, integer: bool = False):
    """A finite JSON number as float, or as int when integer is set.

    Every numeric config value goes through here, so a string, a list,
    a boolean, NaN or infinity becomes a ConfigError naming its key.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{where} must be an integer, got {value!r}")
        return int(value)
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return out


def _number_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _typed(section: dict, where: str) -> dict:
    """The section with its numeric keys coerced through _number."""
    out = dict(section)
    for key, value in section.items():
        if key in _FLOAT_KEYS:
            out[key] = _number(value, f"{where}.{key}")
        elif key in _INT_KEYS:
            out[key] = _number(value, f"{where}.{key}", integer=True)
        elif key in _LIST_KEYS:
            out[key] = _number_list(value, f"{where}.{key}")
    return out


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be an object")
    return dict(value)


def _build_grid(section) -> Grid:
    if not isinstance(section, dict):
        raise ConfigError("'grid' must be an object")
    _reject_unknown(section, _GRID_KEYS, "grid")
    _require(section, ("n_dim", "h", "tau"), "grid")
    for key in ("half_space", "stagger"):
        if not isinstance(section.get(key, False), bool):
            raise ConfigError(f"grid.{key} must be true or false, got {section[key]!r}")
    try:
        return Grid(
            n_dim=_number(section["n_dim"], "grid.n_dim", integer=True),
            h=_number(section["h"], "grid.h"),
            tau=_number(section["tau"], "grid.tau"),
            spatial_extent=_number(section.get("spatial_extent", 1.0), "grid.spatial_extent"),
            time_extent=_number(section.get("time_extent", 1.0), "grid.time_extent"),
            half_space=section.get("half_space", False),
            stagger=section.get("stagger", False),
        )
    except InputError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _point(value, n_dim: int, where: str) -> list:
    """An [x_1..x_n, t] list of floats."""
    if not isinstance(value, list) or len(value) != n_dim + 1:
        raise ConfigError(f"{where} entries are [x_1..x_n, t] lists of length {n_dim + 1}")
    return _number_list(value, where)


def _operator_section(tag: str, op: dict) -> dict:
    _reject_unknown(op, _OPERATOR_KEYS[tag], f"operator ({tag})")
    op = _typed(op, "operator")
    if "epsilon" in op and op["epsilon"] < 0.0:
        raise ConfigError(f"operator.epsilon must be >= 0, got {op['epsilon']}")
    if tag == "solve":
        _require(op, ("kind",), "operator")
        kind = op["kind"]
        if kind not in ("heat", "pucci_plus", "pucci_minus", "p_laplace"):
            raise ConfigError(f"unknown operator kind {kind!r}")
        if kind in ("pucci_plus", "pucci_minus"):
            _require(op, ("lam", "Lam"), "operator")
        if kind == "p_laplace":
            _require(op, ("p",), "operator")
            if op["p"] <= 1.0:
                raise ConfigError(f"p must exceed 1, got {op['p']}")
    elif tag == "class_check":
        _require(op, ("lam", "Lam", "f_bound"), "operator")
    elif tag == "counterexample":
        _require(op, ("delta",), "operator")
        if op["delta"] <= 0.0:
            raise ConfigError(f"counterexample needs delta > 0, got {op['delta']}")
    elif tag == "p_sweep":
        _require(op, ("p_list",), "operator")
        for p in op["p_list"]:
            if p <= 1.0:
                raise ConfigError(f"p values must exceed 1, got {p}")
    elif tag == "ellipticity_sweep":
        _require(op, ("delta_list",), "operator")
        for d in op["delta_list"]:
            if d < 0.0:
                raise ConfigError(f"delta values must be >= 0, got {d}")
    elif tag == "eps_sweep":
        _require(op, ("p", "eps_schedule"), "operator")
        if op["p"] <= 1.0:
            raise ConfigError(f"p must exceed 1, got {op['p']}")
    return op


def _affine_part(spec, n_dim: int) -> dict:
    if not isinstance(spec, dict) or set(spec) != {"value", "gradient"}:
        raise ConfigError("data.affine_part must be {'value': a, 'gradient': [...]}")
    value = _number(spec["value"], "data.affine_part.value")
    gradient = _number_list(spec["gradient"], "data.affine_part.gradient")
    if len(gradient) != n_dim:
        raise ConfigError(f"affine_part gradient needs {n_dim} components")
    return {"value": value, "gradient": gradient}


def _data_section(tag: str, data: dict, grid: Grid, base_dir: str) -> dict:
    _reject_unknown(data, _DATA_KEYS, "data")
    if tag in ("solve", "p_sweep", "ellipticity_sweep", "eps_sweep"):
        _require(data, ("f", "g"), "data")
    elif tag in ("class_check", "decay"):
        _require(data, ("u",), "data")
    elif tag == "boundary":
        _require(data, ("affine_part",), "data")
        if ("u" in data) == ("g" in data):
            raise ConfigError(
                "boundary study needs exactly one of data.u (sample mode) "
                "or data.g (solve mode)"
            )
    # Build every referenced field here, once: bad specs fail at parse
    # time, and the scenario runs on the built fields.
    for key, spec in data.items():
        if key == "affine_part":
            data[key] = _affine_part(spec, grid.n_dim)
            continue
        try:
            data[key] = make_field(spec, grid.n_dim, base_dir)
        except (TypeError, ValueError, OverflowError, OSError, GridFileError) as exc:
            raise ConfigError(f"data.{key}: malformed field spec ({exc})") from exc
    return data


def _analysis_section(tag: str, an: dict, grid: Grid) -> dict:
    _reject_unknown(an, _ANALYSIS_KEYS, "analysis")
    an = _typed(an, "analysis")
    if "eta" in an and not 0.0 < an["eta"] < 1.0:
        raise ConfigError(f"analysis.eta must lie in (0, 1), got {an['eta']}")
    if "K" in an and an["K"] < 0:
        raise ConfigError(f"analysis.K must be >= 0, got {an['K']}")
    if "n_points" in an and an["n_points"] < 1:
        raise ConfigError(f"analysis.n_points must be >= 1, got {an['n_points']}")
    if "points" in an:
        if not isinstance(an["points"], list):
            raise ConfigError(f"analysis.points must be a list, got {an['points']!r}")
        an["points"] = [_point(pt, grid.n_dim, "analysis.points") for pt in an["points"]]
    if "center" in an:
        an["center"] = _point(an["center"], grid.n_dim, "analysis.center")
    if tag == "boundary" and not grid.half_space:
        raise ConfigError("boundary study needs grid.half_space = true")
    return an


def parse_config(raw: dict, base_dir: str = ".") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(
        raw, {"scenario", "grid", "operator", "data", "analysis", "seed"}, "config"
    )
    _require(raw, ("scenario", "grid"), "config")
    tag = raw["scenario"]
    if tag not in SCENARIO_TAGS:
        raise ConfigError(f"unknown scenario {tag!r}; valid tags: {list(SCENARIO_TAGS)}")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    grid = _build_grid(raw["grid"])
    return ScenarioConfig(
        scenario=tag,
        grid=grid,
        operator=_operator_section(tag, _section(raw, "operator")),
        data=_data_section(tag, _section(raw, "data"), grid, base_dir),
        analysis=_analysis_section(tag, _section(raw, "analysis"), grid),
        seed=seed,
    )


def load_config(path: str) -> ScenarioConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file does not exist: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))
