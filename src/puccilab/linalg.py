"""Dense symmetric eigenvalues for small matrices.

The matrices here are Hessians, so the dimension is the spatial
dimension of a grid (n <= 6 in practice, usually 1-3).  The membership
checks and the Pucci solver hand over one Hessian per grid node, so
every routine works on a stack of shape (..., n, n) at once.

For n <= 3 the eigenvalues come in closed form: the entry itself for
n = 1, mean -/+ hypot for n = 2, and for n = 3 the trigonometric
solution of the characteristic cubic (Smith, Comm. ACM 4(4), 1961;
Kopp, Int. J. Mod. Phys. C 19, 2008).  Near a double eigenvalue the
arccos in that solution turns an O(eps) rounding into an O(sqrt(eps))
error, so those matrices, like every matrix with n >= 4, go to LAPACK
through numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, _real_array

__all__ = ["jacobi_eigh_batch"]

# A 3x3 matrix whose normalized determinant r lies within this distance
# of +-1 has two eigenvalues close together; arccos is ill-conditioned
# there, so its eigenvalues come from LAPACK instead.
DOUBLE_ROOT_GAP = 1e-4


def _symmetric(m) -> np.ndarray:
    """m as a fresh square, finite, bitwise symmetric float array, or InputError."""
    a = _real_array(m, "matrix entries")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix entries must be finite")
    # Halving before adding cannot overflow; symmetric entries stay as
    # given.  Adding 0.0 turns every signed zero into +0.0, so a -0.0
    # facing a +0.0 cannot leave the two triangles apart.
    return np.where(a == a.T, a, 0.5 * a + 0.5 * a.T) + 0.0


def _eigvals_2(a: np.ndarray) -> np.ndarray:
    mean = 0.5 * a[..., 0, 0] + 0.5 * a[..., 1, 1]
    radius = np.hypot(0.5 * a[..., 0, 0] - 0.5 * a[..., 1, 1], a[..., 1, 0])
    return np.stack((mean - radius, mean + radius), axis=-1)


def _eigvals_3(a: np.ndarray) -> np.ndarray:
    a00, a11, a22 = a[..., 0, 0], a[..., 1, 1], a[..., 2, 2]
    a10, a20, a21 = a[..., 1, 0], a[..., 2, 0], a[..., 2, 1]
    # Overflow and NaN can only arise for entries near the float range;
    # such rows fail the finiteness test below and go to LAPACK.
    with np.errstate(over="ignore", invalid="ignore"):
        q = (a00 + a11 + a22) / 3.0
        b00, b11, b22 = a00 - q, a11 - q, a22 - q
        p = np.sqrt(
            (b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * (a10 * a10 + a20 * a20 + a21 * a21))
            / 6.0
        )
        # r = det((A - qI) / p) / 2 lies in [-1, 1]; p = 0 means A = qI.
        inv = 1.0 / np.where(p > 0.0, p, 1.0)
        c00, c11, c22 = b00 * inv, b11 * inv, b22 * inv
        c10, c20, c21 = a10 * inv, a20 * inv, a21 * inv
        r = 0.5 * (
            c00 * (c11 * c22 - c21 * c21)
            - c10 * (c10 * c22 - c21 * c20)
            + c20 * (c10 * c21 - c11 * c20)
        )
        closed = (np.abs(r) <= 1.0 - DOUBLE_ROOT_GAP) & np.isfinite(p)
        # Solve at |r| and flip by its sign, so that -A gets exactly -eig(A)
        # and the Pucci duality M-(X) = -M+(-X) survives rounding.
        flip = r < 0.0
        phi = np.arccos(np.where(closed, np.abs(r), 0.0)) / 3.0
        two_p = np.where(flip, -2.0, 2.0) * p
        top = q + two_p * np.cos(phi)
        bottom = q + two_p * np.cos(phi + 2.0 * np.pi / 3.0)
        out = np.empty(a.shape[:-1])
        out[..., 0] = np.where(flip, top, bottom)
        out[..., 1] = q + two_p * np.cos(phi - 2.0 * np.pi / 3.0)
        out[..., 2] = np.where(flip, bottom, top)
    fallback = ~closed
    if np.any(fallback):
        out[fallback] = np.linalg.eigvalsh(a[fallback])
    return out


def jacobi_eigh_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of symmetric matrices, ascending.

    mats has shape (..., n, n); returns eigenvalues of shape (..., n).
    Only the lower triangle is read.  The name is kept from the Jacobi
    sweep this replaced, because callers and traces bind it.
    """
    a = np.asarray(mats, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputError(f"expected stacked square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix entries must be finite")
    n = a.shape[-1]
    if n == 1:
        return a[..., 0].copy()
    if n == 2:
        return _eigvals_2(a)
    if n == 3:
        return _eigvals_3(a)
    return np.linalg.eigvalsh(a)

