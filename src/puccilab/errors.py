"""Exception types shared across the package.

Everything derives from PucciLabError so callers can catch the whole
family at once.  Below it sit two bases that the CLI maps onto its exit
codes: ValidationError (exit 1) for input that is wrong before any
numerics run, and NumericalError (exit 2) for failures met while
computing.  Every concrete error derives from exactly one of them.

The checkers at the end turn a caller's malformed input into an
InputError instead of a raw Python or numpy error.  _real_number is the
one checker of scalars, for the library and the config alike (config
wraps its InputError in a ConfigError): it types each number and tests
its range, given as one of the range tuples below.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

__all__ = [
    "PucciLabError",
    "ValidationError",
    "NumericalError",
    "InputError",
    "DegenerateCylinderError",
    "BoundaryProximityError",
    "GridFileError",
    "SingularGradientError",
    "CFLViolationError",
    "BlowUpError",
    "DegenerateFitError",
    "AlignmentError",
    "FaceDataError",
    "ConfigError",
]


class PucciLabError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PucciLabError):
    """Input rejected before or instead of computing; CLI exit code 1."""


class NumericalError(PucciLabError):
    """A computation failed on valid input; CLI exit code 2."""


class InputError(ValidationError):
    """Malformed numerical input: wrong shape, non-finite entries, bad range."""


class DegenerateCylinderError(NumericalError):
    """A parabolic cylinder too small to contain any usable grid node."""


class BoundaryProximityError(NumericalError):
    """A stencil was requested at a node without room for its footprint."""


class GridFileError(ValidationError):
    """Grid-function file is corrupt: bad magic, bad metadata, or truncated payload."""


class SingularGradientError(NumericalError):
    """Normalized p-Laplacian coefficients requested at a zero gradient with no regularization."""


class CFLViolationError(ValidationError):
    """Explicit time step too large for the diffusion coefficients on this grid."""


class BlowUpError(NumericalError):
    """A marched solution left the finite range; carries the offending step."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class DegenerateFitError(NumericalError):
    """Least-squares design matrix is rank deficient on the given node set."""


class AlignmentError(ValidationError):
    """Rescaling radius incompatible with the lattice spacing."""


class FaceDataError(ValidationError):
    """Half-space face values violate a precondition (for example, not zero)."""


class ConfigError(ValidationError):
    """Scenario configuration failed validation."""


# A range: a test on the typed number, and the words a message states it in.
_ANY = (lambda x: True, "")
_ABOVE_ONE = (lambda x: x > 1.0, "> 1")
_POSITIVE = (lambda x: x > 0.0, "> 0")
_NONNEGATIVE = (lambda x: x >= 0.0, ">= 0")
_UNIT_INTERVAL = (lambda x: 0.0 < x < 1.0, "in (0, 1)")
_EXPONENT = (lambda x: 0.0 < x <= 1.0, "in (0, 1]")


def _real_number(value, what: str, rng=_ANY, integer: bool = False):
    """value as a finite float in rng, an int when integer is set, or InputError naming what.

    Text and booleans are refused although float() would take them: a
    number given as a string or as True is a caller's mistake.  An int
    too large for a float counts as non-finite.
    """
    kind = "an integer" if integer else "a real number"
    if isinstance(value, (str, bytes, bool, np.bool_)):
        raise InputError(f"{what} must be {kind}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be {kind}, got {value!r}") from exc
    if not math.isfinite(x):
        raise InputError(f"{what} must be finite, got {value!r}")
    if integer:
        if not x.is_integer():
            raise InputError(f"{what} must be an integer, got {value!r}")
        x = int(value) if isinstance(value, Integral) else int(x)
    if not rng[0](x):
        raise InputError(f"{what} must be {rng[1]}, got {x}")
    return x


def _real_numbers(values, what: str, rng=_ANY) -> list:
    """Each entry of a sequence through _real_number; a non-sequence is an InputError too."""
    try:
        return [_real_number(v, what, rng) for v in values]
    except TypeError:
        raise InputError(f"{what} must be a list of real numbers, got {values!r}") from None


def _real_array(value, what: str) -> np.ndarray:
    """value as a float array, or InputError naming what (text refused too)."""
    try:
        a = np.asarray(value)
        if a.dtype.kind not in "biufO":
            raise TypeError(f"dtype {a.dtype}")
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be real numbers, got {value!r}") from exc


def _check_type(value, cls, message: str):
    """value, or InputError stating message unless it is a cls."""
    if not isinstance(value, cls):
        raise InputError(f"{message}, got {type(value).__name__}")
    return value
