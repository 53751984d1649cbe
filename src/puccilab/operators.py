"""Pointwise differential operators and solution-class membership.

Covers the Pucci extremal operators over an ellipticity box, the heat
operator, and the normalized p-Laplacian in exact and regularized
form, together with the two-sided membership test for the extended
solution class: a field u belongs (discretely, up to a stencil
tolerance) when

    u_t - M_minus(D^2 u) >= -f_bound   and   u_t - M_plus(D^2 u) <= f_bound

at every admissible interior node.

Each operator is a tag that states its arithmetic once, in _value:
slice_value runs it on the vectorized stencils of one time slice, since
grids carry millions of nodes, and point_value on one matrix as a
one-row stack, so the two agree bit for bit.  A tag also carries ell,
the ellipticity box of its class (heat (lam, lam), Pucci (lam, Lam),
p-Laplace (min(1, p-1), max(1, p-1))), cfl_coefficient, its Lam, and
_check_marchable, which refuses the exact p-Laplacian (epsilon = 0).

The Pucci operators read only the sums of the positive and of the
negative eigenvalues of each Hessian.  When Gershgorin's discs certify
a Hessian semidefinite (every diagonal entry at least, or at most the
negative of, the sum of the absolute off-diagonal entries of its row),
those sums are the trace and zero: M_plus = Lam tr and M_minus = lam tr
on a positive semidefinite Hessian, and the other way round on a
negative one.  Only the remaining Hessians are eigen-solved.

The normalized p-Laplacian has one implementation, _plaplace_value.
At a zero gradient the exact operator is set-valued, and one envelope
rule, _plaplace_envelope_value, bounds it by the values over the
Hessian's extreme eigenvalues; only those rows are eigen-solved.  A
tag's _envelope hook gives it (None for every other tag), and
pde_residual reads it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    _ABOVE_ONE,
    _NONNEGATIVE,
    _POSITIVE,
    InputError,
    SingularGradientError,
    _check_type,
    _real_array,
    _real_number,
)
from .grid import GridFunction
from .linalg import _symmetric, jacobi_eigh_batch

__all__ = [
    "EllipticityPair",
    "PLaplaceParams",
    "ClassReport",
    "HeatOp",
    "PucciPlusOp",
    "PucciMinusOp",
    "PLaplaceOp",
    "p_laplace_coeff",
    "class_membership",
    "membership_tolerance",
    "pde_residual",
]


def _store_reals(params, **ranges) -> None:
    """Store the named fields of a frozen parameter object as floats, each in its range."""
    for name, rng in ranges.items():
        object.__setattr__(params, name, _real_number(getattr(params, name), name, rng))


@dataclass(frozen=True)
class EllipticityPair:
    """Ellipticity box 0 < lam <= Lam for the extremal operators."""

    lam: float
    Lam: float

    def __post_init__(self):
        _store_reals(self, lam=_POSITIVE, Lam=_POSITIVE)
        if self.lam > self.Lam:
            raise InputError(
                f"need 0 < lam <= Lam, got lam={self.lam}, Lam={self.Lam}"
            )


@dataclass(frozen=True)
class PLaplaceParams:
    """Exponent p > 1 and gradient regularization epsilon >= 0."""

    p: float
    epsilon: float = 0.0

    def __post_init__(self):
        _store_reals(self, p=_ABOVE_ONE, epsilon=_NONNEGATIVE)


@dataclass(frozen=True)
class ClassReport:
    """Outcome of a membership check.

    worst_sub_slack is the smallest margin of the lower inequality
    u_t - M_minus + f_bound >= 0 (negative when u is too strong a
    subsolution for the budget); worst_super_slack the same for the
    upper inequality f_bound - (u_t - M_plus) >= 0.  worst_node is the
    (time level, spatial index) achieving the smaller of the two.  Ties
    go to the earlier level, then within a level to the lower
    inequality, then to the lowest node in row-major order.
    """

    verdict: str
    worst_sub_slack: float
    worst_super_slack: float
    worst_node: tuple[int, tuple[int, ...]]
    tolerance: float


# ---------------------------------------------------------------------------
# Operator tags, shared with the solver.


def _check_tag(op) -> None:
    """Refuse what is not an operator tag (HeatOp, PucciPlusOp, PucciMinusOp, PLaplaceOp)."""
    if not isinstance(op, _OperatorTag):
        raise InputError(f"unknown operator tag {op!r}")


class _OperatorTag:
    """Base of the tags: each supplies ell and _value(diag, cross, grad, ws).

    _value reads second differences, the dict {(i, j): cross difference}
    (empty where _reads_cross is unset) and, where _reads_gradient is
    set, the gradient, all in the workspace's units, and returns its
    value in them.  A slice costs the passes of the kernels (on a dyadic
    h one for 2 * center, 2 per second difference, 1 per gradient
    component, 3 per cross term or 2 where the tag reads the gradient)
    and of _value: 7, 24 and 32 for heat, p-flow and Pucci in 2-D (10,
    44 and 56 in 3-D), Pucci's gather aside.
    """

    _reads_cross = True
    _reads_gradient = False

    @property
    def cfl_coefficient(self) -> float:
        return self.ell.Lam

    def _check_marchable(self) -> None:
        """Raise InputError if the explicit march cannot step this tag."""

    def _envelope(self, diag, cross, grad, ws):
        """(low, high) scaled values where the operator is set-valued, else None."""
        return None

    def slice_value(self, sl: np.ndarray, h: float, ws=None) -> np.ndarray:
        """The operator over the interior of a slice, in the workspace's units.

        Times ws.scale it is the operator's value.  sl is a level, or with
        ws its flat vector, as the march hands it.
        """
        ws = ws or _Workspace(sl.shape)
        return self._value(*self._stencils(sl, h, ws), ws)

    def _stencils(self, sl: np.ndarray, h: float, ws):
        """(diag, cross, grad) of a slice, each formed only where the tag reads it.

        A tag that reads the gradient forms its cross differences from
        the raw one.
        """
        x = _flat(sl)
        diag = _slice_diag_diffs(x, h, ws)
        grad = _slice_gradient(x, h, ws) if self._reads_gradient else None
        raw = ws.grad_raw if self._reads_gradient else None
        cross = _slice_cross_diffs(x, h, ws, raw) if self._reads_cross else {}
        return diag, cross, grad

    def point_value(self, m, q=None) -> float:
        """The operator at one symmetric matrix m, and gradient q where it reads one.

        The slice arithmetic on a one-row stack, so it equals slice_value
        at a node bit for bit.
        """
        diag, cross, grad, ws = _point_stencils(m, q, self._reads_gradient)
        return float(self._value(diag, cross, grad, ws)[0])


@dataclass(frozen=True)
class HeatOp(_OperatorTag):
    """u_t = lam * trace(D^2 u) + f, in the box (lam, lam)."""

    lam: float = 1.0

    _reads_cross = False

    def __post_init__(self):
        _store_reals(self, lam=_POSITIVE)

    @property
    def ell(self) -> EllipticityPair:
        return EllipticityPair(self.lam, self.lam)

    def _value(self, diag, cross, grad, ws):
        trace = _slice_trace(diag, ws)
        return np.multiply(self.lam, trace, out=trace)


@dataclass(frozen=True)
class _PucciOp(_OperatorTag):
    """u_t = M(D^2 u) + f over the box ell, with M = M_plus where plus is True, else M_minus."""

    ell: EllipticityPair

    def __post_init__(self):
        _check_type(self.ell, EllipticityPair, "ell must be an EllipticityPair")

    def _value(self, diag, cross, grad, ws):
        pos, neg = _eigen_sign_sums(diag, cross, ws)
        return _pucci_combine(pos, neg, self.ell, self.plus, ws)


class PucciPlusOp(_PucciOp):
    plus = True


class PucciMinusOp(_PucciOp):
    plus = False


@dataclass(frozen=True)
class PLaplaceOp(_OperatorTag):
    """The regularized normalized p-Laplace flow, in the box (min(1, p-1), max(1, p-1))."""

    params: PLaplaceParams

    _reads_gradient = True

    def __post_init__(self):
        _check_type(self.params, PLaplaceParams, "params must be a PLaplaceParams")

    @property
    def ell(self) -> EllipticityPair:
        q = self.params.p - 1.0
        return EllipticityPair(min(q, 1.0), max(q, 1.0))

    def _check_marchable(self) -> None:
        # set-valued at a zero gradient; pde_residual and slice_value still take it
        if self.params.epsilon == 0.0:
            raise InputError(f"{self!r}: epsilon = 0 is analysis-only; march epsilon > 0")

    def _envelope(self, diag, cross, grad, ws):
        if self.params.epsilon == 0.0:
            return _plaplace_envelope_value(self.params.p, diag, cross, grad, ws)
        return None

    def _value(self, diag, cross, grad, ws):
        # the value lands in diag[0]'s buffer
        _, value, zero = _plaplace_value(
            self.params.p, self.params.epsilon, diag, cross, grad, ws, quad=diag[0]
        )
        if zero.size:
            raise SingularGradientError(
                "zero discrete gradient met with epsilon^2 = 0; evaluate through "
                "pde_residual(..., zero_gradient='envelope') or use epsilon > 0"
            )
        return value


# ---------------------------------------------------------------------------
# One matrix and the Pucci combination.


def _pucci_combine(pos, neg, ell: EllipticityPair, plus: bool, ws=None, key="value", scale=1.0):
    """M+ or M- from the sums of the positive and the negative eigenvalues.

    The result goes to the workspace buffer named key (see _Workspace).
    scale multiplies both ellipticity constants; membership passes the
    workspace's scale there, which turns raw lattice sums into values.
    """
    ws = ws or _Workspace.for_rows(pos.size)
    a, b = (ell.Lam, ell.lam) if plus else (ell.lam, ell.Lam)
    value = np.multiply(a * scale, pos, out=ws.buf(key))
    value += np.multiply(b * scale, neg, out=ws.tmp)
    return value


def p_laplace_coeff(q, params: PLaplaceParams) -> np.ndarray:
    """Coefficient matrix I + (p-2) q x q / (|q|^2 + eps^2)."""
    q = np.atleast_1d(_real_array(q, "gradient"))
    if not np.all(np.isfinite(q)):
        raise InputError("gradient must be finite")
    qq = float(q @ q)
    eps = _check_type(params, PLaplaceParams, "params must be a PLaplaceParams").epsilon
    den = qq + eps * eps
    if den == 0.0:
        raise SingularGradientError(
            "coefficients undefined at q = 0 with epsilon = 0; use "
            "pde_residual(..., zero_gradient='envelope') or a positive epsilon"
        )
    n = q.shape[0]
    return _symmetric(np.eye(n) + (params.p - 2.0) * np.outer(q, q) / den)


def _point_stencils(m, q, gradient: bool):
    """m, and q if gradient is set (else grad is None), as one-row stencils.

    Returns (diag, cross, grad, ws) as the slice kernels give them, cross
    a dict, with a one-row workspace.  diag[0] is scratch for the
    p-Laplacian's quadratic form, as in the march.
    """
    a = _symmetric(m)
    n = a.shape[0]
    diag = [a[i, i : i + 1] for i in range(n)]
    cross = {(i, j): a[j, i : i + 1] for i in range(n) for j in range(i + 1, n)}
    grad = None
    if gradient:
        q = _real_array(q, "gradient")
        if q.shape != (n,) or not np.all(np.isfinite(q)):
            raise InputError(f"gradient must be {n} finite numbers, got {q.tolist()}")
        grad = [q[i : i + 1] for i in range(n)]
    return diag, cross, grad, _Workspace.for_rows(1)


# ---------------------------------------------------------------------------
# Slice-level stencils.  A level of shape S is read as one flat
# C-contiguous vector, in which node (1, ..., 1) sits at index lo (the
# sum of the axis strides) and the last interior node at hi - 1.  A
# stencil term that moves s_i steps along each axis i is the contiguous
# range [lo + o, hi + o) with o = sum s_i stride_i, so every kernel runs
# its ufuncs on contiguous operands and returns arrays of length hi - lo.
# Between interior rows that range holds ghost positions, edge nodes
# whose stencils wrap around the row ends (1.6 % of the range at 129^2,
# 27 % at 17^3).  The workspace's valid mask is False there, and a ghost
# never reaches the eigen-solver, a membership minimum, a residual or a
# marched level.  Axis order stays ascending everywhere, so that
# summation order, and therefore bit patterns, are reproducible.
#
# Each kernel writes into the buffers of a _Workspace, one ufunc with
# out= per arithmetic step, in the order in which the written-out
# expression, e.g. (up - 2.0 * center + dn) / h2, evaluates.  Called
# without a workspace, a kernel runs the same code on a fresh one.  The
# arrays a kernel returns are workspace buffers: they hold their values
# until the next kernel call on the same workspace.
#
# Every buffer starts on a page boundary, so on a 64-byte cache line
# too.  numpy's binary float loops run at less than half speed when the
# output of an out-of-place pass does not start on a line: on an
# AVX-512 Xeon, np.add(a, b, out=c) on 16 381 doubles took 8.5-9.7 us
# with c 8-120 bytes past a line and 3.8-4.3 us with c on one, whatever
# the offsets of a and b; in-place and unary passes lost 15-60 %, and a
# division nothing.  np.empty gives 16-byte-aligned memory, so most
# buffers missed a line and an out-of-place pass of a step cost about
# twice the others.  A page boundary is a boundary of every smaller
# power of two, whatever vector width a numpy build uses.  The rule
# costs at most one page per buffer and moves no bit.
#
# The cross difference (i, j) is ((x[k+s_i+s_j] - x[k+s_i-s_j]) -
# x[k-s_i+s_j]) + x[k-s_i-s_j], each term in its own buffer.  Its first
# difference is the raw gradient's component j at node k + s_i, and
# _slice_gradient forms each component j >= 1 over [lo, hi + s_0): a
# caller that formed the gradient of the same level hands it to
# _slice_cross_diffs, which then takes two passes per term, not three.
# A p-flow operator makes 24 passes over the range in 2-D (44 in 3-D),
# and the march step three more (tau / h^2, the add, the finiteness
# scan), plus one for a scalar forcing it adds and two for an array.
#
# The kernels return raw lattice differences when the workspace was made
# for a power-of-two step h = 2^k: the second differences in units of
# h^2 (up - 2 center + dn), the cross differences in units of 4 h^2 and
# the gradient in units of 2 h (the workspace's units).  Scaling by an
# exact power of two commutes with every later add, multiply and divide
# bit for bit while the values stay in the normal range, so each
# consumer folds the units into a multiply that it already makes and
# gets the bits of the divided differences:
#   - the march adds the forcing as f h^2 and multiplies by tau / h^2
#     instead of tau;
#   - membership multiplies the Pucci sums by Lam / h^2 and lam / h^2;
#   - the p-Laplacian adds eps^2 4 h^2 to |Du|^2 and weighs its cross
#     terms by 1/2 instead of 2, and its value carries the units of h^2;
#   - Gershgorin compares each d_i with the |c_ij| / 4;
#   - the Hessians sent to the eigen-solver are scaled to their values
#     first, so the solver sees the numbers of the divided differences;
#   - the residual and the envelope, which are not hot, take one more
#     pass that scales their values.
# Any other h, and a workspace made without h, has units 1: the kernels
# divide as written above and every folded factor is the plain one.


def _lattice_units(h) -> tuple[float, float, float]:
    """(h^2, 4 h^2, 2 h) for a power of two h, else (1, 1, 1).

    Only 2^-64 <= h <= 2^64 counts, so that the units, their
    reciprocals and their products with operator constants stay far
    inside the normal range.
    """
    mant, exp = math.frexp(h)
    if mant == 0.5 and -63 <= exp <= 65:
        h2 = h * h
        return h2, 4.0 * h2, 2.0 * h
    return 1.0, 1.0, 1.0


_PAGE = 4096


def _page_aligned(shape, dtype=float) -> np.ndarray:
    """An uninitialised array of this shape whose data starts on a page boundary.

    One page more than the array needs is allocated, and the array is
    the view that starts at its first 4096-byte boundary.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + _PAGE, np.uint8)
    start = -raw.ctypes.data % _PAGE
    return raw[start : start + nbytes].view(dtype).reshape(shape)


class _Workspace:
    """The flat layout of one level shape, its stencil units, and buffers of length hi - lo.

    strides are the axis strides in elements, [lo, hi) is the flat range
    of the stencils, and valid and ghost mark its interior nodes and its
    ghosts.  units are (u_d, u_c, u_g): a second difference, a cross
    difference and a gradient component from the kernels are their
    values times these (see _lattice_units; 1 when h is None), and
    scale = 1 / u_d turns a second difference, a trace or an operator
    value into its value.

    Buffers are allocated on first use, and dead ones are reused: the
    trace overwrites 2 * center once the second differences are formed,
    and the p-Laplace march puts its quadratic form in the first second
    difference.  Each cross term has its own buffer ("cross", i, j), so
    a 2-D p-flow step reads 8 buffers and a 3-D one 12.  The buffers of
    every step are attributes, plain ones once read; buf(key) names the
    others.  A march or a membership pass makes one workspace and
    hands it to every slice, so its step temporaries are allocated once
    per pass instead of once per step.  Every buffer, and the valid and
    ghost masks, start on a page boundary (_page_aligned): an
    out-of-place binary pass whose output did not start on a 64-byte
    line, as most heap buffers did not, ran at less than half speed (see
    the stencil comment above).
    """

    def __init__(self, shape, h=None):
        self.shape = tuple(shape)
        self.axes = range(len(self.shape))
        self.strides = tuple(int(np.prod(self.shape[i + 1 :])) for i in self.axes)
        self.lo = sum(self.strides)
        self.hi = sum((s - 2) * st for s, st in zip(self.shape, self.strides)) + 1
        inner = np.zeros(self.shape, dtype=bool)
        inner[tuple(slice(1, -1) for _ in self.shape)] = True
        self.valid = _page_aligned(self.hi - self.lo, bool)
        np.copyto(self.valid, inner.reshape(-1)[self.lo : self.hi])
        self.ghost = np.logical_not(self.valid, out=_page_aligned(self.hi - self.lo, bool))
        self.units = (1.0, 1.0, 1.0) if h is None else _lattice_units(h)
        self.scale = 1.0 / self.units[0]
        self._buffers = {}

    @classmethod
    def for_rows(cls, rows: int) -> "_Workspace":
        """Buffers for a plain stack of rows: a 1-D level with no ghosts, units 1."""
        return cls((rows + 2,))

    def buf(self, key, dtype=float, extra=0) -> np.ndarray:
        """The buffer named key, of length hi - lo + extra."""
        out = self._buffers.get(key)
        if out is None:
            out = self._buffers[key] = _page_aligned(self.hi - self.lo + extra, dtype)
        return out

    trace = cached_property(lambda self: self.buf("trace"))
    tmp = cached_property(lambda self: self.buf("tmp"))
    norm2 = cached_property(lambda self: self.buf("norm2"))
    diag = cached_property(lambda self: [self.buf(("diag", i)) for i in self.axes])
    # the raw gradient, each component but the first over [lo, hi + s_0),
    # where _slice_cross_diffs reads it; grad is its part over [lo, hi)
    grad_raw = cached_property(
        lambda self: [self.buf(("grad_raw", i), extra=i and self.strides[0]) for i in self.axes]
    )
    grad = cached_property(lambda self: [g[: self.hi - self.lo] for g in self.grad_raw])


def _warn_unless_finite(values: np.ndarray, ws, what: str) -> int | None:
    """Warn at a non-finite interior value, where numpy's own warnings are off.

    Returns the position in the flat range of the first such value, or None.
    """
    finite = np.isfinite(values, out=ws.buf("finite", bool))
    finite |= ws.ghost
    if finite.all():
        return None
    warnings.warn(f"{what} is not finite at an interior node", RuntimeWarning, stacklevel=3)
    return int(np.argmin(finite))


def _flat(sl: np.ndarray) -> np.ndarray:
    """A level as a flat vector: a flat one as it is, a C-contiguous one as a view, never a copy."""
    if sl.ndim == 1:
        return sl
    if not sl.flags.c_contiguous:
        raise ValueError("the slice kernels read a level flat; it must be C-contiguous")
    return sl.reshape(-1)


def _divide(values: np.ndarray, den: float, out=None) -> np.ndarray:
    """values / den, in place or into out, with the bits of the division.

    A kernel divides by its divisor over the workspace's unit for it,
    and skips the call where that is 1, as for raw differences.  When
    den is +-2^k and 1/den is finite, x * (1/den) and x / den have the
    same real value and both are correctly rounded, so they agree bit
    for bit, and a multiply pass costs about half a division pass.
    Every other divisor (0.1, 2^-1074 whose reciprocal overflows, 0,
    inf, nan) divides.
    """
    out = values if out is None else out
    mant, exp = math.frexp(den)
    if abs(mant) == 0.5 and exp >= -1022:
        return np.multiply(values, 1.0 / den, out=out)
    return np.divide(values, den, out=out)


def _slice_diag_diffs(sl: np.ndarray, h: float, ws=None) -> list[np.ndarray]:
    ws = ws or _Workspace(sl.shape)
    x, lo, hi = _flat(sl), ws.lo, ws.hi
    den = h * h / ws.units[0]
    # 2.0 * center is the same for every axis; it is computed once, in
    # the buffer that the trace takes over
    twice = np.multiply(2.0, x[lo:hi], out=ws.trace)
    for s, d in zip(ws.strides, ws.diag):
        np.subtract(x[lo + s : hi + s], twice, out=d)
        d += x[lo - s : hi - s]
        if den != 1.0:
            _divide(d, den)
    return ws.diag


def _slice_cross_diffs(sl: np.ndarray, h: float, ws=None, grad_raw=None):
    """{(i, j): cross difference} for i < j, each in its own buffer.

    grad_raw, if given, is the raw gradient of this level as
    _slice_gradient leaves it in ws.grad_raw: the first difference
    x[k + s_i + s_j] - x[k + s_i - s_j] is then read as its component j
    at node k + s_i, the same subtraction, instead of being formed.
    """
    ws = ws or _Workspace(sl.shape)
    x, lo, hi = _flat(sl), ws.lo, ws.hi
    den = 4.0 * (h * h) / ws.units[1]
    out = {}
    for i, j in combinations(ws.axes, 2):
        si, sj = ws.strides[i], ws.strides[j]
        c = ws.buf(("cross", i, j))
        if grad_raw is None:
            np.subtract(x[lo + si + sj : hi + si + sj], x[lo + si - sj : hi + si - sj], out=c)
            c -= x[lo - si + sj : hi - si + sj]
        else:
            np.subtract(grad_raw[j][si : si + hi - lo], x[lo - si + sj : hi - si + sj], out=c)
        c += x[lo - si - sj : hi - si - sj]
        out[i, j] = c if den == 1.0 else _divide(c, den)
    return out


def _slice_gradient(sl: np.ndarray, h: float, ws=None) -> list[np.ndarray]:
    """The gradient over [lo, hi); its raw differences stay in ws.grad_raw."""
    ws = ws or _Workspace(sl.shape)
    x, lo = _flat(sl), ws.lo
    for s, g in zip(ws.strides, ws.grad_raw):
        np.subtract(x[lo + s : lo + s + g.size], x[lo - s : lo - s + g.size], out=g)
    den = 2.0 * h / ws.units[2]
    if den == 1.0:
        return ws.grad
    return [_divide(g, den, out=ws.buf(("grad", i))) for i, g in enumerate(ws.grad)]


def _slice_time_diff(sl: np.ndarray, prev: np.ndarray, tau: float, ws=None) -> np.ndarray:
    """Backward difference (u^m - u^{m-1}) / tau over the interior range."""
    ws = ws or _Workspace(sl.shape)
    lo, hi = ws.lo, ws.hi
    dt = np.subtract(_flat(sl)[lo:hi], _flat(prev)[lo:hi], out=ws.buf("dt"))
    return _divide(dt, tau)


def _hessian_stack(diag, cross, units=(1.0, 1.0)) -> np.ndarray:
    """The (..., n, n) Hessians of diag and cross, each divided by its unit."""
    n = len(diag)
    shape = diag[0].shape
    hess = np.zeros(shape + (n, n))
    for i in range(n):
        np.divide(diag[i], units[0], out=hess[..., i, i])
    for (i, j), val in cross.items():
        np.divide(val, units[1], out=hess[..., i, j])
        hess[..., j, i] = hess[..., i, j]
    return hess


def _row_stack(diag, cross, rows, ws) -> np.ndarray:
    """The Hessians of the given flat positions, as a (rows, n, n) stack of values."""
    return _hessian_stack(
        [d.take(rows) for d in diag], {key: c.take(rows) for key, c in cross.items()}, ws.units
    )


def _slice_trace(diag, ws) -> np.ndarray:
    trace = ws.trace
    if len(diag) == 1:
        np.copyto(trace, diag[0])
        return trace
    np.add(diag[0], diag[1], out=trace)
    for d in diag[2:]:
        trace += d
    return trace


def _eigen_value_sums(values: np.ndarray):
    pos = np.where(values > 0.0, values, 0.0).sum(axis=-1)
    neg = np.where(values < 0.0, values, 0.0).sum(axis=-1)
    return pos, neg


def _eigen_sign_sums(diag, cross, ws=None):
    """Per-row sums (pos, neg) of the positive and the negative eigenvalues.

    Gershgorin certifies a row positive semidefinite when every diagonal
    entry d_i is at least its radius, the sum of |c_ij| over j != i; then
    (pos, neg) = (trace, 0).  A row with d_i <= -radius for every i is
    negative semidefinite and gets (0, trace).  Only the other rows are
    gathered into a Hessian stack and eigen-solved; the ghosts of a
    level's range never are.  Rows with a non-finite entry are never
    certified, so the eigen-solver still rejects them.  The sums are in
    the units of diag (see _Workspace).
    """
    ws = ws or _Workspace.for_rows(diag[0].size)
    n = len(diag)
    # |c_ij| in the units of diag: a raw cross difference is 4 h^2 c_ij
    to_diag = ws.units[0] / ws.units[1]
    absc = {}
    for key, c in cross.items():
        a = absc[key] = np.abs(c, out=ws.buf(("abs",) + key))
        np.multiply(a, to_diag, out=a)
    neg_radius, hit = ws.buf("neg_radius"), ws.buf("hit", bool)
    # The trace and the radii overflow only for entries near the float
    # range; such rows stay uncertified and go to the eigen-solver.
    with np.errstate(over="ignore", invalid="ignore"):
        trace = _slice_trace(diag, ws)
        psd = np.isfinite(trace, out=ws.buf("psd", bool))
        nsd = ws.buf("nsd", bool)
        np.copyto(nsd, psd)
        for i in range(n):
            terms = [absc[min(i, j), max(i, j)] for j in range(n) if j != i]
            radius = terms[0] if terms else 0.0
            for t in terms[1:]:
                radius = np.add(radius, t, out=ws.buf("radius"))
            psd &= np.greater_equal(diag[i], radius, out=hit)
            nsd &= np.less_equal(diag[i], np.negative(radius, out=neg_radius), out=hit)
    rest = np.logical_or(psd, nsd, out=ws.buf("rest", bool))
    np.logical_not(rest, out=rest)
    rest &= ws.valid
    pos, neg = ws.buf("pos"), ws.buf("neg")
    pos.fill(0.0)
    neg.fill(0.0)
    np.copyto(pos, trace, where=psd)
    np.copyto(neg, trace, where=nsd)
    if rest.any():
        rows = np.flatnonzero(rest)
        values = jacobi_eigh_batch(_row_stack(diag, cross, rows, ws))
        pos[rows], neg[rows] = _eigen_value_sums(np.multiply(values, ws.units[0], out=values))
    return pos, neg


def _plaplace_forms(diag, cross, grad, ws, quad):
    """trace(D^2 u), |Du|^2 and Du . D^2 u Du over a slice, in the workspace's units.

    The quadratic form goes to the buffer quad, which may be diag[0]'s:
    that is read only by the trace and the form's first term.
    """
    trace = _slice_trace(diag, ws)
    # |Du|^2 sums the squares g_i^2 and the quadratic form the terms
    # g_i^2 d_i, then the cross terms 2 g_i g_j c_ij, each in ascending
    # order; their factor 2 becomes 1/2 for raw differences (2 u_d / u_c).
    # np.square is g * g bit for bit, and a unary pass is the cheaper one
    twice = 2.0 * ws.units[0] / ws.units[1]
    tmp = ws.tmp
    norm2 = np.square(grad[0], out=ws.norm2)
    quad = np.multiply(norm2, diag[0], out=quad)
    for i in range(1, len(diag)):
        square = np.square(grad[i], out=tmp)
        norm2 += square
        quad += np.multiply(square, diag[i], out=tmp)
    for (i, j), val in cross.items():
        np.multiply(grad[i], grad[j], out=tmp)
        tmp *= val
        np.multiply(twice, tmp, out=tmp)
        quad += tmp
    return trace, norm2, quad


_NO_ROWS = np.empty(0, dtype=np.intp)


def _plaplace_value(p: float, eps: float, diag, cross, grad, ws, quad=None):
    """trace + (p-2) quad / (|Du|^2 + eps^2) over a slice or a stack of rows.

    Returns the trace, the value (both in the units of diag) and the
    interior positions whose denominator is 0, i.e. a zero gradient at
    eps^2 = 0.  The value there is a placeholder (the quotient is taken
    as 0) until the caller raises or applies the envelope rule.  At
    eps^2 > 0 the step runs no zero test.  The value is written to the
    buffer quad (the workspace's "quad" by default), so the trace stays
    readable.
    """
    quad = ws.buf("quad") if quad is None else quad
    trace, norm2, quad = _plaplace_forms(diag, cross, grad, ws, quad)
    # eps^2 in the units of |Du|^2
    eps2 = eps * eps * (ws.units[2] * ws.units[2])
    den = np.add(norm2, eps2, out=norm2)
    zero = _NO_ROWS
    if eps2 == 0.0:
        singular = den == 0.0
        zero = np.flatnonzero(singular & ws.valid)
        den[singular] = 1.0  # keeps the division quiet at those rows and the ghosts
    quad /= den
    np.multiply(p - 2.0, quad, out=quad)
    return trace, np.add(trace, quad, out=quad), zero


def _plaplace_envelope_value(p: float, diag, cross, grad, ws):
    """(low, high) values of the exact normalized p-Laplacian (eps = 0).

    Away from a zero gradient both are the operator's value.  At a zero
    gradient they are the smaller and the larger of tr + (p-2) e over
    the extreme eigenvalues e of the Hessian: the subsolution test reads
    the larger, the supersolution test the smaller, whatever the sign of
    p - 2.  Only those rows are eigen-solved.  Both come scaled to
    values, whatever the workspace's units.
    """
    trace, value, zero = _plaplace_value(p, 0.0, diag, cross, grad, ws)
    low = np.multiply(value, ws.scale, out=value)
    high = low.copy()
    if zero.size:
        extremes = jacobi_eigh_batch(_row_stack(diag, cross, zero, ws))[:, [0, -1]]
        ends = trace[zero, None] * ws.scale + (p - 2.0) * extremes
        low[zero], high[zero] = ends.min(axis=1), ends.max(axis=1)
    return low, high


# ---------------------------------------------------------------------------
# Membership and residuals.


def membership_tolerance(u: GridFunction) -> float:
    """Default stencil-consistency tolerance 10 (h + tau) (1 + max|u|)."""
    grid = _check_type(u, GridFunction, "u must be a GridFunction").grid
    return 10.0 * (grid.h + grid.tau) * (1.0 + u.sup_norm)


def class_membership(
    u: GridFunction, ell: EllipticityPair, f_bound: float, tol: float | None = None
) -> ClassReport:
    """Two-sided extremal-operator test at every admissible interior node.

    Admissible means at least one step from every spatial edge and at
    least one level above the bottom slice.  The verdict is pass when
    both worst slacks stay above -tol.
    """
    grid = _check_type(u, GridFunction, "u must be a GridFunction").grid
    _check_type(ell, EllipticityPair, "ell must be an EllipticityPair")
    f_bound = _real_number(f_bound, "f_bound, a sup norm,", _NONNEGATIVE)
    if grid.n_time_levels < 2:
        raise InputError("membership needs at least two time levels")
    if any(s < 3 for s in grid.spatial_shape):
        raise InputError("membership needs at least one interior node per axis")
    tol = membership_tolerance(u) if tol is None else _real_number(tol, "tol")

    worst_sub = np.inf
    worst_super = np.inf
    worst_node: tuple[int, tuple[int, ...]] = (1, (1,) * grid.n_dim)
    worst_key = np.inf

    ws = _Workspace(grid.spatial_shape, grid.h)
    # ghosts can overflow where no interior node does; a non-finite
    # interior Hessian still reaches the eigen-solver and raises, and a
    # non-finite interior slack warns
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, grid.n_time_levels):
            sl = u.data[m]
            pos, neg = _eigen_sign_sums(
                _slice_diag_diffs(sl, grid.h, ws), _slice_cross_diffs(sl, grid.h, ws), ws
            )
            m_plus = _pucci_combine(pos, neg, ell, True, ws, "m_plus", ws.scale)
            m_minus = _pucci_combine(pos, neg, ell, False, ws, "m_minus", ws.scale)
            dt = _slice_time_diff(sl, u.data[m - 1], grid.tau, ws)
            # dt - m_minus + f_bound and f_bound - (dt - m_plus), in place
            sub_slack = np.subtract(dt, m_minus, out=m_minus)
            sub_slack += f_bound
            super_slack = np.subtract(dt, m_plus, out=m_plus)
            np.subtract(f_bound, super_slack, out=super_slack)

            for slack, is_sub in ((sub_slack, True), (super_slack, False)):
                _warn_unless_finite(slack, ws, "a membership slack")
                np.copyto(slack, np.inf, where=ws.ghost)
                flat = int(np.argmin(slack))
                val = float(slack[flat])
                if is_sub:
                    worst_sub = min(worst_sub, val)
                else:
                    worst_super = min(worst_super, val)
                if val < worst_key:
                    worst_key = val
                    idx = np.unravel_index(ws.lo + flat, ws.shape)
                    worst_node = (m, tuple(int(i) for i in idx))

    verdict = "pass" if (worst_sub >= -tol and worst_super >= -tol) else "fail"
    return ClassReport(
        verdict=verdict,
        worst_sub_slack=float(worst_sub),
        worst_super_slack=float(worst_super),
        worst_node=worst_node,
        tolerance=float(tol),
    )


def pde_residual(
    u: GridFunction, op, f: GridFunction, zero_gradient: str = "raise"
) -> GridFunction:
    """Residual u_t - operator(D^2 u, Du) - f on the admissible nodes.

    Non-admissible nodes (spatial edge, bottom slice) carry 0.  For the
    exact p-Laplacian (epsilon = 0), nodes with a vanishing discrete
    gradient raise by default; zero_gradient='envelope' instead scores
    them by the signed distance of zero to the interval spanned by the
    two envelope branches, so an exact solution reports residual 0.
    """
    grid = _check_type(u, GridFunction, "u must be a GridFunction").grid
    _check_tag(op)
    if zero_gradient not in ("raise", "envelope"):
        raise InputError(f"zero_gradient must be 'raise' or 'envelope', got {zero_gradient!r}")
    _check_type(f, GridFunction, "forcing term must be a GridFunction")
    if f.grid != grid:
        raise InputError("forcing term lives on a different grid")
    out = np.zeros_like(u.data)
    out_flat = out.reshape(grid.n_time_levels, -1)

    ws = _Workspace(grid.spatial_shape, grid.h)
    lo, hi = ws.lo, ws.hi
    # ghosts can overflow where no interior node does; a non-finite
    # interior residual warns and raises, naming its level and node
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, grid.n_time_levels):
            sl = u.data[m]
            dt = _slice_time_diff(sl, u.data[m - 1], grid.tau, ws)
            rhs = _flat(f.data[m])[lo:hi]
            # the stencils are formed once, for the envelope and the value
            stencils = op._stencils(sl, grid.h, ws)
            ends = op._envelope(*stencils, ws) if zero_gradient == "envelope" else None
            if ends is not None:
                low, high = ends
                res = np.subtract(dt, rhs, out=dt)
                value = np.maximum(res - high, 0.0) + np.minimum(res - low, 0.0)
            else:
                value = op._value(*stencils, ws)
                value = np.subtract(dt, np.multiply(value, ws.scale, out=value), out=dt)
                value -= rhs
            bad = _warn_unless_finite(value, ws, "the residual")
            if bad is not None:
                node = tuple(int(i) for i in np.unravel_index(lo + bad, ws.shape))
                raise InputError(f"the residual is not finite at level {m}, node {node}")
            np.copyto(out_flat[m, lo:hi], value, where=ws.valid)
    return GridFunction(grid=grid, data=out)

