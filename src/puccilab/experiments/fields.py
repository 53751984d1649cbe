"""Named analytic fields used as forcing, boundary data, and test profiles.

A field spec is a name string, a dict {"name": ..., params...}, or
{"file": path} pointing at a stored grid function.  Specs come from
config files, so validation is strict: unknown names, unknown or
missing parameters, and parameters that are not finite numbers raise
ConfigError with the offending key.  The typed number converters here
are the ones config.py applies to every numeric config value.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..errors import ConfigError
from ..grid import Grid, GridFunction, read_gridfn, sample

__all__ = ["make_field", "field_on_grid", "FIELD_NAMES"]


# A range: a test on the typed number, and the words a message states it in.
_ANY = (lambda x: True, "")
_ABOVE_ONE = (lambda x: x > 1.0, "> 1")
_POSITIVE = (lambda x: x > 0.0, "> 0")
_NONNEGATIVE = (lambda x: x >= 0.0, ">= 0")
_UNIT_INTERVAL = (lambda x: 0.0 < x < 1.0, "in (0, 1)")


def _real(rng=_ANY, integer=False):
    """A parser for one finite JSON number in rng, an int when integer is set.

    Every numeric config value goes through one of these, so a string, a
    list, a boolean, NaN or infinity becomes a ConfigError naming its key.
    """

    def parse(value, where, *_):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {value!r}")
        if integer:
            if isinstance(value, float) and not value.is_integer():
                raise ConfigError(f"{where} must be an integer, got {value!r}")
            x = int(value)
        else:
            try:
                x = float(value)
            except OverflowError:
                x = math.inf
            if not math.isfinite(x):
                raise ConfigError(f"{where} must be finite, got {value!r}")
        if not rng[0](x):
            raise ConfigError(f"{where} must be {rng[1]}, got {x}")
        return x

    return parse


def _reals(rng=_ANY):
    item = _real(rng)

    def parse(value, where, *_):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]

    return parse


_REAL = _real()
_REALS = _reals()


def _norm2(mesh, n_dim):
    out = mesh[0] * mesh[0]
    for i in range(1, n_dim):
        out = out + mesh[i] * mesh[i]
    return out


def _build_zero(params, n_dim):
    return lambda mesh, t: 0.0


def _build_constant(params, n_dim):
    value = params["value"]
    return lambda mesh, t: value


def _build_affine(params, n_dim):
    value = params["value"]
    gradient = np.asarray(params["gradient"], dtype=float)
    if gradient.shape != (n_dim,):
        raise ConfigError(
            f"affine field gradient needs {n_dim} components, got {gradient.shape}"
        )

    def expr(mesh, t):
        out = np.asarray(value + gradient[0] * mesh[0], dtype=float)
        for i in range(1, n_dim):
            out = out + gradient[i] * mesh[i]
        return out

    return expr


def _build_quadratic_caloric(params, n_dim):
    lam = params.get("lam", 1.0)
    return lambda mesh, t: _norm2(mesh, n_dim) + 2.0 * lam * n_dim * t


def _build_p_quadratic(params, n_dim):
    p = params["p"]
    rate = 2.0 * (n_dim + p - 2.0)
    return lambda mesh, t: _norm2(mesh, n_dim) + rate * t


def _build_counterexample(params, n_dim):
    shrink = 1.0 / (1.0 + params["delta"])

    def expr(mesh, t):
        xn = mesh[n_dim - 1]
        return np.where(xn < 0.0, xn * xn, shrink * (xn * xn))

    return expr


def _build_odd_cubic_caloric(params, n_dim):
    lam = params.get("lam", 1.0)

    def expr(mesh, t):
        xn = mesh[n_dim - 1]
        return xn * xn * xn + 6.0 * lam * xn * t

    return expr


def _build_abs_kink(params, n_dim):
    return lambda mesh, t: np.abs(mesh[0])


# name: (builder, required and optional parameters, each with its parser)
_BUILDERS = {
    "zero": (_build_zero, {}, {}),
    "constant": (_build_constant, {"value": _REAL}, {}),
    "affine": (_build_affine, {"value": _REAL, "gradient": _REALS}, {}),
    "quadratic_caloric": (_build_quadratic_caloric, {}, {"lam": _REAL}),
    "p_quadratic": (_build_p_quadratic, {"p": _REAL}, {}),
    "counterexample": (_build_counterexample, {"delta": _real(_POSITIVE)}, {}),
    "odd_cubic_caloric": (_build_odd_cubic_caloric, {}, {"lam": _REAL}),
    "abs_kink": (_build_abs_kink, {}, {}),
}

FIELD_NAMES = tuple(sorted(_BUILDERS))


def make_field(spec, n_dim: int, base_dir: str = "."):
    """Turn a field spec into a callable (mesh, t) or a stored GridFunction."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"field spec must be a name or a dict, got {type(spec).__name__}")
    if "file" in spec:
        extra = set(spec) - {"file"}
        if extra:
            raise ConfigError(f"unknown keys {sorted(extra)} in file field spec")
        path = os.path.join(base_dir, spec["file"])
        if not os.path.isfile(path):
            raise ConfigError(f"field file does not exist: {path}")
        return read_gridfn(path)
    if "name" not in spec:
        raise ConfigError(f"field spec needs a 'name' or 'file' key, got {sorted(spec)}")
    name = spec["name"]
    if name not in _BUILDERS:
        raise ConfigError(f"unknown field name {name!r}; known: {list(FIELD_NAMES)}")
    builder, required, optional = _BUILDERS[name]
    params = {k: v for k, v in spec.items() if k != "name"}
    missing = set(required) - set(params)
    if missing:
        raise ConfigError(f"field {name!r} is missing parameter(s) {sorted(missing)}")
    parsers = required | optional
    unknown = set(params) - set(parsers)
    if unknown:
        raise ConfigError(f"field {name!r} got unknown parameter(s) {sorted(unknown)}")
    typed = {k: parsers[k](v, f"field {name!r} parameter {k}") for k, v in params.items()}
    return builder(typed, n_dim)


def field_on_grid(field, grid: Grid) -> GridFunction:
    """Materialize a field (callable or stored function) on the grid."""
    if isinstance(field, GridFunction):
        if field.grid != grid:
            raise ConfigError("stored field lives on a different grid than configured")
        return field
    return sample(field, grid)
