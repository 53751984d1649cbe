"""Pointwise differential operators and solution-class membership.

Covers the Pucci extremal operators over an ellipticity box, the heat
operator, and the normalized p-Laplacian in exact and regularized
form, together with the two-sided membership test for the extended
solution class: a field u belongs (discretely, up to a stencil
tolerance) when

    u_t - M_minus(D^2 u) >= -f_bound   and   u_t - M_plus(D^2 u) <= f_bound

at every admissible interior node.

The per-node API mirrors the math; the membership check and the
residual evaluator work one time slice at a time with vectorized
stencils, since grids carry millions of nodes.

The Pucci operators read only the sums of the positive and of the
negative eigenvalues of each Hessian.  When Gershgorin's discs certify
a Hessian semidefinite (every diagonal entry at least, or at most the
negative of, the sum of the absolute off-diagonal entries of its row),
those sums are the trace and zero: M_plus = Lam tr and M_minus = lam tr
on a positive semidefinite Hessian, and the other way round on a
negative one.  Only the remaining Hessians are eigen-solved.  The
pointwise pucci_plus and pucci_minus take the same path on a one-row
stack, so they agree with the slice kernels bit for bit.

The normalized p-Laplacian has one implementation, _plaplace_value,
which the march, pde_residual and the pointwise normalized_p_laplacian
and envelope_residuals all run (the pointwise forms on a one-row
stack).  At a zero gradient the exact operator is set-valued, and one
envelope rule, _plaplace_envelope_value, bounds it by the values over
the Hessian's extreme eigenvalues; only those rows are eigen-solved.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularGradientError
from .grid import GridFunction
from .linalg import SymMatrix, _as_entries, jacobi_eigh_batch

__all__ = [
    "EllipticityPair",
    "PLaplaceParams",
    "ClassReport",
    "HeatOp",
    "PucciPlusOp",
    "PucciMinusOp",
    "PLaplaceOp",
    "pucci_plus",
    "pucci_minus",
    "p_laplace_coeff",
    "normalized_p_laplacian",
    "envelope_residuals",
    "class_membership",
    "membership_tolerance",
    "pde_residual",
]


@dataclass(frozen=True)
class EllipticityPair:
    """Ellipticity box 0 < lam <= Lam for the extremal operators."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and np.isfinite(self.Lam)):
            raise InputError("ellipticity constants must be finite")
        if not 0.0 < self.lam <= self.Lam:
            raise InputError(
                f"need 0 < lam <= Lam, got lam={self.lam}, Lam={self.Lam}"
            )


@dataclass(frozen=True)
class PLaplaceParams:
    """Exponent p > 1 and gradient regularization epsilon >= 0."""

    p: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 1.0):
            raise InputError(f"p must be finite and > 1, got {self.p}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise InputError(f"epsilon must be >= 0, got {self.epsilon}")

    @property
    def lam(self) -> float:
        """Lower ellipticity bound min(p-1, 1) of the coefficient matrix."""
        return min(self.p - 1.0, 1.0)

    @property
    def Lam(self) -> float:
        """Upper ellipticity bound max(p-1, 1)."""
        return max(self.p - 1.0, 1.0)


@dataclass(frozen=True)
class ClassReport:
    """Outcome of a membership check.

    worst_sub_slack is the smallest margin of the lower inequality
    u_t - M_minus + f_bound >= 0 (negative when u is too strong a
    subsolution for the budget); worst_super_slack the same for the
    upper inequality f_bound - (u_t - M_plus) >= 0.  worst_node is the
    (time level, spatial index) achieving the smaller of the two, ties
    resolved toward the lower inequality and then the lowest node in
    time-major row-major order.
    """

    verdict: str
    worst_sub_slack: float
    worst_super_slack: float
    worst_node: tuple[int, tuple[int, ...]]
    tolerance: float


# ---------------------------------------------------------------------------
# Operator tags, shared with the solver.


@dataclass(frozen=True)
class HeatOp:
    """u_t = lam * trace(D^2 u) + f."""

    lam: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise InputError(f"heat coefficient must be positive, got {self.lam}")

    @property
    def cfl_coefficient(self) -> float:
        return self.lam


@dataclass(frozen=True)
class PucciPlusOp:
    ell: EllipticityPair

    @property
    def cfl_coefficient(self) -> float:
        return self.ell.Lam


@dataclass(frozen=True)
class PucciMinusOp:
    ell: EllipticityPair

    @property
    def cfl_coefficient(self) -> float:
        return self.ell.Lam


@dataclass(frozen=True)
class PLaplaceOp:
    params: PLaplaceParams

    @property
    def cfl_coefficient(self) -> float:
        return self.params.Lam


# ---------------------------------------------------------------------------
# Pointwise operators.


def _pucci_combine(pos, neg, ell: EllipticityPair, plus: bool, ws=None, key="value"):
    """M+ or M- from the sums of the positive and the negative eigenvalues.

    The result goes to the workspace buffer named key (see _Workspace).
    """
    ws = ws or _Workspace.for_rows(pos.size)
    a, b = (ell.Lam, ell.lam) if plus else (ell.lam, ell.Lam)
    value = np.multiply(a, pos, out=ws.buf(key))
    value += np.multiply(b, neg, out=ws.buf("tmp"))
    return value


def _matrix_stencils(m):
    """One matrix as one-row diag and cross arrays, as the slice kernels give them."""
    a = _as_entries(m)
    n = a.shape[0]
    diag = [a[i, i : i + 1] for i in range(n)]
    cross = {(i, j): a[j, i : i + 1] for i in range(n) for j in range(i + 1, n)}
    return diag, cross


def pucci_plus(m, ell: EllipticityPair) -> float:
    """sup of tr(A M) over symmetric A with lam I <= A <= Lam I."""
    pos, neg = _eigen_sign_sums(*_matrix_stencils(m))
    return float(_pucci_combine(pos, neg, ell, plus=True)[0])


def pucci_minus(m, ell: EllipticityPair) -> float:
    """inf of tr(A M) over the same ellipticity box."""
    pos, neg = _eigen_sign_sums(*_matrix_stencils(m))
    return float(_pucci_combine(pos, neg, ell, plus=False)[0])


def p_laplace_coeff(q, params: PLaplaceParams) -> SymMatrix:
    """Coefficient matrix I + (p-2) q x q / (|q|^2 + eps^2)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all(np.isfinite(q)):
        raise InputError("gradient must be finite")
    qq = float(q @ q)
    den = qq + params.epsilon * params.epsilon
    if den == 0.0:
        raise SingularGradientError(
            "coefficients undefined at q = 0 with epsilon = 0; use "
            "envelope_residuals or a positive epsilon"
        )
    n = q.shape[0]
    return SymMatrix(np.eye(n) + (params.p - 2.0) * np.outer(q, q) / den)


def _point_stencils(m, q, p: float):
    """m and q as one-row stencils with a one-row workspace, p checked."""
    PLaplaceParams(p)
    diag, cross = _matrix_stencils(m)
    q = np.asarray(q, dtype=float)
    if q.shape != (len(diag),) or not np.all(np.isfinite(q)):
        raise InputError(f"gradient must be {len(diag)} finite numbers, got {q.tolist()}")
    return diag, cross, [q[i : i + 1] for i in range(len(diag))], _Workspace.for_rows(1)


def normalized_p_laplacian(m, q, p: float) -> float:
    """tr(a(q) M) with a(q) = I + (p-2) q x q / |q|^2; needs q != 0."""
    _, value, zero = _plaplace_value(p, 0.0, *_point_stencils(m, q, p))
    if zero.size:
        raise SingularGradientError(
            "normalized p-Laplacian undefined at q = 0; use envelope_residuals"
        )
    return float(value[0])


def envelope_residuals(m, q, p: float) -> tuple[float, float]:
    """Operator values (sub, super) for the subsolution and supersolution tests.

    Away from q = 0 both coincide with the normalized p-Laplacian.  At
    q = 0 they are the larger and the smaller of tr M + (p-2) e over the
    extreme eigenvalues e of M (see _plaplace_envelope_value).
    """
    low, high = _plaplace_envelope_value(p, *_point_stencils(m, q, p))
    return float(high[0]), float(low[0])


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


class _Workspace:
    """The flat layout of one level shape, and buffers of length hi - lo.

    strides are the axis strides in elements, [lo, hi) is the flat range
    of the stencils, and valid and ghost mark its interior nodes and its
    ghosts.  Buffers are allocated on first use.  A march or a membership pass makes one and
    hands it to every slice, so its step temporaries are allocated once
    per pass instead of once per step.  Workspaces are never shared:
    threads marching at the same time each make their own.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.strides = tuple(int(np.prod(self.shape[i + 1 :])) for i in range(len(self.shape)))
        self.lo = sum(self.strides)
        self.hi = sum((s - 2) * st for s, st in zip(self.shape, self.strides)) + 1
        inner = np.zeros(self.shape, dtype=bool)
        inner[tuple(slice(1, -1) for _ in self.shape)] = True
        self.valid = inner.reshape(-1)[self.lo : self.hi]
        self.ghost = ~self.valid
        self._buffers = {}

    @classmethod
    def for_rows(cls, rows: int) -> "_Workspace":
        """Buffers for a plain stack of rows: a 1-D level with no ghosts."""
        return cls((rows + 2,))

    def buf(self, key, dtype=float) -> np.ndarray:
        out = self._buffers.get(key)
        if out is None:
            out = self._buffers[key] = np.empty(self.hi - self.lo, dtype)
        return out


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
    """A C-contiguous level as a flat view; a strided one raises, never copies."""
    if not sl.flags.c_contiguous:
        raise ValueError("the slice kernels read a level flat; it must be C-contiguous")
    return sl.reshape(-1)


def _divide(values: np.ndarray, den: float) -> np.ndarray:
    """values / den in place, with the bits of the division.

    When den is +-2^k and 1/den is finite, x * (1/den) and x / den have
    the same real value and both are correctly rounded, so they agree
    bit for bit, and a multiply pass costs about half a division pass.
    Every other divisor (0.1, 2^-1074 whose reciprocal overflows, 0,
    inf, nan) divides.
    """
    mant, exp = math.frexp(den)
    if abs(mant) == 0.5 and exp >= -1022:
        return np.multiply(values, 1.0 / den, out=values)
    return np.divide(values, den, out=values)


def _slice_diag_diffs(sl: np.ndarray, h: float, ws=None) -> list[np.ndarray]:
    ws = ws or _Workspace(sl.shape)
    x, lo, hi = _flat(sl), ws.lo, ws.hi
    h2 = h * h
    # 2.0 * center is the same for every axis; it is computed once
    twice = np.multiply(2.0, x[lo:hi], out=ws.buf("twice_center"))
    out = []
    for i, s in enumerate(ws.strides):
        d = np.subtract(x[lo + s : hi + s], twice, out=ws.buf(("diag", i)))
        d += x[lo - s : hi - s]
        _divide(d, h2)
        out.append(d)
    return out


def _slice_cross_diffs(
    sl: np.ndarray, h: float, ws=None
) -> dict[tuple[int, int], np.ndarray]:
    ws = ws or _Workspace(sl.shape)
    x, lo, hi = _flat(sl), ws.lo, ws.hi
    h2 = h * h
    out = {}
    for i, si in enumerate(ws.strides):
        for j in range(i + 1, len(ws.strides)):
            sj = ws.strides[j]
            c = np.subtract(
                x[lo + si + sj : hi + si + sj],
                x[lo + si - sj : hi + si - sj],
                out=ws.buf(("cross", i, j)),
            )
            c -= x[lo - si + sj : hi - si + sj]
            c += x[lo - si - sj : hi - si - sj]
            _divide(c, 4.0 * h2)
            out[(i, j)] = c
    return out


def _slice_gradient(sl: np.ndarray, h: float, ws=None) -> list[np.ndarray]:
    ws = ws or _Workspace(sl.shape)
    x, lo, hi = _flat(sl), ws.lo, ws.hi
    out = []
    for i, s in enumerate(ws.strides):
        g = np.subtract(x[lo + s : hi + s], x[lo - s : hi - s], out=ws.buf(("grad", i)))
        _divide(g, 2.0 * h)
        out.append(g)
    return out


def _slice_time_diff(sl: np.ndarray, prev: np.ndarray, tau: float, ws=None) -> np.ndarray:
    """Backward difference (u^m - u^{m-1}) / tau over the interior range."""
    ws = ws or _Workspace(sl.shape)
    lo, hi = ws.lo, ws.hi
    dt = np.subtract(_flat(sl)[lo:hi], _flat(prev)[lo:hi], out=ws.buf("dt"))
    return _divide(dt, tau)


def _hessian_stack(diag, cross) -> np.ndarray:
    n = len(diag)
    shape = diag[0].shape
    hess = np.zeros(shape + (n, n))
    for i in range(n):
        hess[..., i, i] = diag[i]
    for (i, j), val in cross.items():
        hess[..., i, j] = val
        hess[..., j, i] = val
    return hess


def _row_stack(diag, cross, rows) -> np.ndarray:
    """The Hessians of the given flat positions, as a (rows, n, n) stack."""
    return _hessian_stack(
        [d.take(rows) for d in diag], {key: c.take(rows) for key, c in cross.items()}
    )


def _slice_trace(diag, ws) -> np.ndarray:
    trace = ws.buf("trace")
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
    certified, so the eigen-solver still rejects them.
    """
    ws = ws or _Workspace.for_rows(diag[0].size)
    n = len(diag)
    absc = {key: np.abs(c, out=ws.buf(("abs",) + key)) for key, c in cross.items()}
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
        values = jacobi_eigh_batch(_row_stack(diag, cross, rows))
        pos[rows], neg[rows] = _eigen_value_sums(values)
    return pos, neg


def _plaplace_forms(diag, cross, grad, ws):
    """trace(D^2 u), |Du|^2 and Du . D^2 u Du over a slice."""
    trace = _slice_trace(diag, ws)
    # |Du|^2 sums the squares g_i^2 and the quadratic form the terms
    # g_i^2 d_i, then the cross terms, each in ascending order
    tmp = ws.buf("tmp")
    norm2 = np.multiply(grad[0], grad[0], out=ws.buf("norm2"))
    quad = np.multiply(norm2, diag[0], out=ws.buf("quad"))
    for i in range(1, len(diag)):
        square = np.multiply(grad[i], grad[i], out=tmp)
        norm2 += square
        quad += np.multiply(square, diag[i], out=tmp)
    for (i, j), val in cross.items():
        np.multiply(grad[i], grad[j], out=tmp)
        tmp *= val
        np.multiply(2.0, tmp, out=tmp)
        quad += tmp
    return trace, norm2, quad


_NO_ROWS = np.empty(0, dtype=np.intp)


def _plaplace_value(p: float, eps: float, diag, cross, grad, ws):
    """trace + (p-2) quad / (|Du|^2 + eps^2) over a slice or a stack of rows.

    Returns the trace, the value and the interior positions whose
    denominator is 0, i.e. a zero gradient at eps^2 = 0.  The value
    there is a placeholder (the quotient is taken as 0) until the caller
    raises or applies the envelope rule.  At eps^2 > 0 the step runs no
    zero test.  The value is written to the quad buffer, so the trace
    stays readable.
    """
    trace, norm2, quad = _plaplace_forms(diag, cross, grad, ws)
    den = np.add(norm2, eps * eps, out=norm2)
    zero = _NO_ROWS
    if eps * eps == 0.0:
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
    p - 2.  Only those rows are eigen-solved.
    """
    trace, value, zero = _plaplace_value(p, 0.0, diag, cross, grad, ws)
    low, high = value, value.copy()
    if zero.size:
        extremes = jacobi_eigh_batch(_row_stack(diag, cross, zero))[:, [0, -1]]
        ends = trace[zero, None] + (p - 2.0) * extremes
        low[zero], high[zero] = ends.min(axis=1), ends.max(axis=1)
    return low, high


def _slice_operator_value(op, sl: np.ndarray, h: float, ws=None) -> np.ndarray:
    """Evaluate the tagged spatial operator over the interior of a slice."""
    ws = ws or _Workspace(sl.shape)
    diag = _slice_diag_diffs(sl, h, ws)
    if isinstance(op, HeatOp):
        trace = _slice_trace(diag, ws)
        return np.multiply(op.lam, trace, out=trace)
    if isinstance(op, (PucciPlusOp, PucciMinusOp)):
        pos, neg = _eigen_sign_sums(diag, _slice_cross_diffs(sl, h, ws), ws)
        return _pucci_combine(pos, neg, op.ell, isinstance(op, PucciPlusOp), ws)
    if isinstance(op, PLaplaceOp):
        cross, grad = _slice_cross_diffs(sl, h, ws), _slice_gradient(sl, h, ws)
        _, value, zero = _plaplace_value(op.params.p, op.params.epsilon, diag, cross, grad, ws)
        if zero.size:
            raise SingularGradientError(
                "zero discrete gradient met with epsilon^2 = 0; evaluate through "
                "envelope_residuals (zero_gradient='envelope') or use epsilon > 0"
            )
        return value
    raise InputError(f"unknown operator tag {op!r}")


# ---------------------------------------------------------------------------
# Membership and residuals.


def membership_tolerance(u: GridFunction) -> float:
    """Default stencil-consistency tolerance 10 (h + tau) (1 + max|u|)."""
    return 10.0 * (u.grid.h + u.grid.tau) * (1.0 + u.sup_norm)


def class_membership(
    u: GridFunction, ell: EllipticityPair, f_bound: float, tol: float | None = None
) -> ClassReport:
    """Two-sided extremal-operator test at every admissible interior node.

    Admissible means at least one step from every spatial edge and at
    least one level above the bottom slice.  The verdict is pass when
    both worst slacks stay above -tol.
    """
    if f_bound < 0.0 or not np.isfinite(f_bound):
        raise InputError(f"f_bound is a sup norm and must be >= 0, got {f_bound}")
    grid = u.grid
    if grid.n_time_levels < 2:
        raise InputError("membership needs at least two time levels")
    if any(s < 3 for s in grid.spatial_shape):
        raise InputError("membership needs at least one interior node per axis")
    if tol is None:
        tol = membership_tolerance(u)

    worst_sub = np.inf
    worst_super = np.inf
    worst_node: tuple[int, tuple[int, ...]] = (1, (1,) * grid.n_dim)
    worst_key = np.inf

    ws = _Workspace(grid.spatial_shape)
    # ghosts can overflow where no interior node does; a non-finite
    # interior Hessian still reaches the eigen-solver and raises, and a
    # non-finite interior slack warns
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, grid.n_time_levels):
            sl = u.data[m]
            pos, neg = _eigen_sign_sums(
                _slice_diag_diffs(sl, grid.h, ws), _slice_cross_diffs(sl, grid.h, ws), ws
            )
            m_plus = _pucci_combine(pos, neg, ell, True, ws, "m_plus")
            m_minus = _pucci_combine(pos, neg, ell, False, ws, "m_minus")
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
    if zero_gradient not in ("raise", "envelope"):
        raise InputError(f"zero_gradient must be 'raise' or 'envelope', got {zero_gradient!r}")
    grid = u.grid
    if f.grid != grid:
        raise InputError("forcing term lives on a different grid")
    out = np.zeros_like(u.data)
    out_flat = out.reshape(grid.n_time_levels, -1)

    envelope = (
        isinstance(op, PLaplaceOp) and op.params.epsilon == 0.0 and zero_gradient == "envelope"
    )
    ws = _Workspace(grid.spatial_shape)
    lo, hi = ws.lo, ws.hi
    # ghosts can overflow where no interior node does; a non-finite
    # interior residual warns and raises, naming its level and node
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, grid.n_time_levels):
            sl = u.data[m]
            dt = _slice_time_diff(sl, u.data[m - 1], grid.tau, ws)
            rhs = _flat(f.data[m])[lo:hi]
            if envelope:
                low, high = _plaplace_envelope_value(
                    op.params.p,
                    _slice_diag_diffs(sl, grid.h, ws),
                    _slice_cross_diffs(sl, grid.h, ws),
                    _slice_gradient(sl, grid.h, ws),
                    ws,
                )
                res = np.subtract(dt, rhs, out=dt)
                value = np.maximum(res - high, 0.0) + np.minimum(res - low, 0.0)
            else:
                value = np.subtract(dt, _slice_operator_value(op, sl, grid.h, ws), out=dt)
                value -= rhs
            bad = _warn_unless_finite(value, ws, "the residual")
            if bad is not None:
                node = tuple(int(i) for i in np.unravel_index(lo + bad, ws.shape))
                raise InputError(f"the residual is not finite at level {m}, node {node}")
            np.copyto(out_flat[m, lo:hi], value, where=ws.valid)
    return GridFunction(grid=grid, data=out)

