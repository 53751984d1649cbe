"""Strict JSON scenario configs.

Every key is whitelisted per section and per scenario; unknown keys
are rejected so a typo cannot silently run a different study than the
one intended.  The operator, data and analysis whitelists live in
scenarios.SCENARIOS (the keys each scenario may and must set) and
scenarios.OPERATOR_KINDS (the operator keys of each solve kind); the
root and grid keys are listed here.  _PARSERS types and range-checks
each value: a finite float, an int for n_dim, K and n_points, a list of
floats, an (x, t) pair for each point and the center, or a built field,
so the scenario layer passes them on as they are; Grid checks its own
flags.  Module-level preconditions still apply when the scenario runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..errors import (
    _ABOVE_ONE,
    _NONNEGATIVE,
    _POSITIVE,
    _UNIT_INTERVAL,
    ConfigError,
    GridFileError,
    InputError,
    _real_number,
)
from ..grid import Grid
from .fields import _REAL, _REALS, _real, _reals, make_field
from .scenarios import OPERATOR_KINDS, SCENARIOS

__all__ = ["ScenarioConfig", "parse_config", "load_config", "SCENARIO_TAGS"]

SCENARIO_TAGS = tuple(SCENARIOS)

_ROOT_KEYS = ("scenario", "grid", "operator", "data", "analysis", "seed")
_GRID_KEYS = ("n_dim", "h", "tau", "spatial_extent", "time_extent", "half_space", "stagger")


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


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section '{where}'; "
            f"allowed: {sorted(allowed)}"
        )


def _require(section: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"section '{where}' is missing required key(s) {missing}")


def _point(value, where, grid, *_):
    """An [x_1..x_n, t] list of numbers, as the (x, t) pair the runners take."""
    if not isinstance(value, list) or len(value) != grid.n_dim + 1:
        raise ConfigError(f"{where} entries are [x_1..x_n, t] lists of length {grid.n_dim + 1}")
    *x, t = _REALS(value, where)
    return x, t


def _points(value, where, grid, *_):
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return [_point(pt, where, grid) for pt in value]


def _field(spec, where, grid, base_dir):
    # Each referenced field is built here, once: bad specs fail at parse
    # time, and the scenario runs on the built field.
    try:
        return make_field(spec, grid.n_dim, base_dir)
    except (TypeError, ValueError, OverflowError, OSError, GridFileError) as exc:
        raise ConfigError(f"{where}: malformed field spec ({exc})") from exc


def _affine_part(spec, where, grid, *_):
    if not isinstance(spec, dict) or set(spec) != {"value", "gradient"}:
        raise ConfigError(f"{where} must be {{'value': a, 'gradient': [...]}}")
    value = _REAL(spec["value"], f"{where}.value")
    gradient = _REALS(spec["gradient"], f"{where}.gradient")
    if len(gradient) != grid.n_dim:
        raise ConfigError(f"affine_part gradient needs {grid.n_dim} components")
    return {"value": value, "gradient": gradient}


# How every grid, operator, data and analysis key is typed and range-checked:
# a parser maps (value, where, grid, base_dir) to the typed value, and grid
# is None while the grid section itself is parsed.
_PARSERS = {
    **dict.fromkeys(("h", "tau", "spatial_extent", "time_extent"), _REAL),
    **dict.fromkeys(("lam", "Lam", "f_bound", "tolerance", "alpha", "c1"), _REAL),
    **dict.fromkeys(("f", "g", "u"), _field),
    "n_dim": _real(integer=True),
    # kind is looked up in OPERATOR_KINDS beforehand, and Grid checks its flags
    **dict.fromkeys(("kind", "half_space", "stagger"), lambda value, *_: value),
    "p": _real(_ABOVE_ONE),
    "p_list": _reals(_ABOVE_ONE),
    "epsilon": _real(_NONNEGATIVE),
    "eps_schedule": _REALS,
    "delta": _real(_POSITIVE),
    "delta_list": _reals(_NONNEGATIVE),
    "affine_part": _affine_part,
    "eta": _real(_UNIT_INTERVAL),
    "K": _real(_NONNEGATIVE, integer=True),
    "n_points": _real(_POSITIVE, integer=True),
    "points": _points,
    "center": _point,
}


def _section(raw: dict, name: str, allowed, required, tag: str, grid, base_dir: str) -> dict:
    """raw[name] typed, after checking it sets only allowed keys and every required one."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be an object")
    _reject_unknown(section, allowed, f"{name} ({tag})")
    _require(section, [k for k in required if k in allowed], f"{name} ({tag})")
    return {
        key: _PARSERS[key](value, f"{name}.{key}", grid, base_dir)
        for key, value in section.items()
    }


def parse_config(raw: dict, base_dir: str = ".") -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _ROOT_KEYS, "config")
    _require(raw, ("scenario", "grid"), "config")
    tag = raw["scenario"]
    # a JSON list is unhashable, so the type is tested before the lookup
    if not isinstance(tag, str) or tag not in SCENARIOS:
        raise ConfigError(f"unknown scenario {tag!r}; valid tags: {list(SCENARIO_TAGS)}")
    seed = raw.get("seed", 0)
    try:
        seed = _real_number(seed, "seed", _NONNEGATIVE, integer=True)
    except InputError:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}") from None
    try:
        grid = Grid(**_section(raw, "grid", _GRID_KEYS, ("n_dim", "h", "tau"), tag, None, ""))
    except InputError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    spec = SCENARIOS[tag]
    allowed = {"operator": spec.operator, "data": spec.data, "analysis": spec.analysis}
    required = spec.required
    operator = raw.get("operator")
    if "kind" in spec.operator and isinstance(operator, dict) and "kind" in operator:
        kind = operator["kind"]
        if not isinstance(kind, str) or kind not in OPERATOR_KINDS:
            raise ConfigError(f"unknown operator kind {kind!r}; valid: {list(OPERATOR_KINDS)}")
        allowed["operator"] += OPERATOR_KINDS[kind].keys
        required += OPERATOR_KINDS[kind].required
    sections = {
        name: _section(raw, name, keys, required, tag, grid, base_dir)
        for name, keys in allowed.items()
    }
    # The rules that tie keys together.
    if tag == "boundary" and ("u" in sections["data"]) == ("g" in sections["data"]):
        raise ConfigError(
            "boundary study needs exactly one of data.u (sample mode) or data.g (solve mode)"
        )
    if tag == "boundary" and "u" in sections["data"] and "lam" in sections["operator"]:
        raise ConfigError(
            "operator.lam sets the heat flow of solve mode; a boundary study in "
            "sample mode (data.u) solves nothing"
        )
    if tag == "boundary" and not grid.half_space:
        raise ConfigError("boundary study needs grid.half_space = true")
    return ScenarioConfig(scenario=tag, grid=grid, seed=seed, **sections)


def load_config(path: str) -> ScenarioConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file does not exist: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))
