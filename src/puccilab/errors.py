"""Exception types shared across the package.

Everything derives from PucciLabError so callers can catch the whole
family at once.  Below it sit two bases that the CLI maps onto its exit
codes: ValidationError (exit 1) for input that is wrong before any
numerics run, and NumericalError (exit 2) for failures met while
computing.  Every concrete error derives from exactly one of them.
The two converters at the end turn a library caller's non-numeric
input into an InputError instead of a raw numpy error.
"""

from __future__ import annotations

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


def _real_number(value, what: str) -> float:
    """value as a float, or InputError naming what.

    Text is refused although float() would parse it: a number given as
    a string is a caller's mistake, as it is in a config (ConfigError).
    """
    if isinstance(value, (str, bytes)):
        raise InputError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a real number, got {value!r}") from exc


def _real_array(value, what: str) -> np.ndarray:
    """value as a float array, or InputError naming what (text refused too)."""
    try:
        a = np.asarray(value)
        if a.dtype.kind not in "biufO":
            raise TypeError(f"dtype {a.dtype}")
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be real numbers, got {value!r}") from exc
