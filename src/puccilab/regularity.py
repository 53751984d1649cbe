"""Decay measurement on dyadic cylinders: the package's analysis core.

The central object is the sequence E_k of best-affine-fit sup errors
over shrinking cylinders Q_{eta^k}(center).  A field that is C^{1,alpha}
at the center has E_k of order eta^{k(1+alpha)}, so the log-log slope
of E_k against the radius, minus one, estimates alpha.  The boundary
variant fits the one-parameter family a * x_n on half cylinders whose
center sits on the flat face, matching the reduced setting where the
field vanishes there.  Rescaling and odd reflection implement the two
coordinate gymnastics the estimates rest on, as exact node-to-node
transcriptions.

Fits are least squares, not minimax: the sup error of the LSQ fit
overestimates the best achievable one by at most a fixed dimensional
factor, which cancels in the log-slope.

Every fit is read off three per-column reductions (mean, min and max
over the cylinder's time window), all from one kernel.  A cylinder
whose (levels x columns) block is no larger than one lattice slice
runs it on a view of its box; a larger one, such as a clipped scale's
whole history, reads the field's whole-lattice run, kept once per
window and shared by scales and centers (CylinderIndex.column_reductions).
A cylinder is a bounding box plus the ball's mask inside it (see
CylinderIndex), and a fit reads the values and the column offsets
through that box only, so one fit costs in proportion to its cylinder,
not the lattice.
Clipped scales never enter the exponent, so callers that read only
alpha_est pass fit_clipped=False: the clipped scales, which are the
coarsest and largest, then get no cylinder, no window reduction and
no fit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    _EXPONENT,
    _NONNEGATIVE,
    _POSITIVE,
    _UNIT_INTERVAL,
    AlignmentError,
    DegenerateFitError,
    FaceDataError,
    InputError,
    _real_number,
)
from .grid import (
    CylinderIndex,
    Grid,
    GridFunction,
    _contained,
    _cylinder_center,
    cylinder_nodes,
)

__all__ = [
    "LinearFit",
    "DecayScale",
    "DecayReport",
    "CauchyCheckReport",
    "PointReport",
    "GlobalReport",
    "best_linear_fit",
    "decay_sequence",
    "boundary_decay_sequence",
    "coefficient_cauchy_check",
    "odd_reflection",
    "rescale",
    "pointwise_c1a_norm",
    "global_report",
    "decay_report_rows",
    "decay_report_payload",
]

# Scales whose fit error falls below this (relative) floor carry no
# slope information and are dropped from the alpha regression.
ROUNDOFF_FLOOR = 1e-13

# Lower clamp for the headline exponent; the reported interval is
# (0, 1], so nonpositive raw slopes land here.
ALPHA_FLOOR = 1e-6

# Face values of a half-space field count as zero up to this much of
# 1 + sup|u| (the boundary fits and the odd reflection both need it).
FACE_TOL = 1e-12


@dataclass(frozen=True)
class LinearFit:
    """Affine fit L(x) = a + b . (x - center) over one cylinder.

    The boundary fits reuse this shape with a = 0 and b carrying the
    single slope against x_n in its last entry.
    """

    a: float
    b: np.ndarray
    sup_error: float
    cylinder: CylinderIndex

    def evaluate(self, x) -> np.ndarray:
        """Evaluate the fit at absolute coordinates x (..., n)."""
        x = np.asarray(x, dtype=float)
        return self.a + (x - self.cylinder.center_x) @ self.b


def _fit_over_cylinder(
    u: GridFunction, cyl: CylinderIndex, boundary: bool
) -> LinearFit:
    offsets = cyl.spatial_offsets()
    # The design repeats identically on every time level, so the
    # least-squares problem reduces to one on the per-column means, and
    # the sup error to max(colmax - pred, pred - colmin): rounded
    # subtraction is monotone, so that is max |values - pred| exactly.
    mean_values, col_min, col_max = cyl.column_reductions(u)
    n = u.grid.n_dim
    n_nodes = cyl.node_count
    needed = 1 if boundary else n + 1
    if n_nodes < n + 2 and not boundary:
        raise DegenerateFitError(
            f"affine fit needs at least {n + 2} nodes, cylinder has {n_nodes}"
        )
    if boundary:
        design = offsets[:, n - 1 : n]
    else:
        # lstsq copies its matrix column by column, so a Fortran-ordered
        # design is filled faster and gives LAPACK the same numbers
        design = np.empty((offsets.shape[0], n + 1), order="F")
        design[:, 0] = 1.0
        design[:, 1:] = offsets
    coef, _, rank, _ = np.linalg.lstsq(design, mean_values, rcond=None)
    if rank < needed:
        raise DegenerateFitError(
            f"rank-deficient fit design (rank {rank} < {needed}) on "
            f"Q_{cyl.radius}({cyl.center_x.tolist()}, {cyl.center_t})"
        )
    if boundary:
        a = 0.0
        b = np.zeros(n)
        b[n - 1] = float(coef[0])
        predicted = offsets[:, n - 1] * coef[0]
    else:
        a = float(coef[0])
        b = np.asarray(coef[1:], dtype=float)
        predicted = coef[0] + offsets @ coef[1:]
    sup_error = max(float((col_max - predicted).max()), float((predicted - col_min).max()))
    b.flags.writeable = False
    return LinearFit(a=a, b=b, sup_error=sup_error, cylinder=cyl)


def best_linear_fit(u: GridFunction, cyl: CylinderIndex) -> LinearFit:
    """Least-squares affine fit with its exact sup error on the cylinder."""
    if cyl.grid != u.grid:
        raise InputError("cylinder indexes a different grid")
    return _fit_over_cylinder(u, cyl, boundary=False)


@dataclass(frozen=True)
class DecayScale:
    """One scale of a decay sequence."""

    k: int
    radius: float
    fit: LinearFit
    sup_error: float
    step_exponent: float | None
    resolved: bool
    clipped: bool


@dataclass(frozen=True)
class DecayReport:
    """Fit errors over Q_{eta^k}(center), k = 0..K, with the slope estimate.

    alpha_est = (log-log regression slope) - 1, clamped into (0, 1];
    scales flagged resolved (error at roundoff) or clipped (cylinder
    not contained in the lattice box) are excluded from the regression
    but keep their fits in entries, unless the sequence ran with
    fit_clipped=False: entries then start at the first contained scale,
    whose step_exponent is None.  When fewer than two scales remain,
    alpha_est is 1 by convention (nothing measurable disagrees).
    """

    eta: float
    center_x: tuple[float, ...]
    center_t: float
    mode: str
    entries: tuple[DecayScale, ...]
    alpha_est: float
    regression_residual: float

    @property
    def sup_errors(self) -> np.ndarray:
        return np.array([e.sup_error for e in self.entries])


def _max_scales(grid: Grid, x0: np.ndarray, eta: float) -> int:
    """Largest K with at least three nodes per axis inside Q_{eta^K}(x0, .)."""
    best = -1
    for k in range(0, 64):
        r = eta**k
        ok = True
        for i in range(grid.n_dim):
            coords = grid.axis_coords(i)
            if grid.half_space and i == grid.n_dim - 1:
                inside = (coords > 0.0) & (np.abs(coords - x0[i]) < r)
            else:
                inside = np.abs(coords - x0[i]) < r
            if int(inside.sum()) < 3:
                ok = False
                break
        if ok:
            best = k
        else:
            break
    if best < 0:
        raise InputError(
            f"no scale of Q_{{eta^k}} around {x0.tolist()} holds three nodes per axis"
        )
    return best


def _assemble_report(
    u: GridFunction, x0: np.ndarray, t0: float, eta: float,
    scales: list[tuple[int, LinearFit, bool]], mode: str,
) -> DecayReport:
    floor = ROUNDOFF_FLOOR * (1.0 + u.sup_norm)
    entries: list[DecayScale] = []
    prev_error: float | None = None
    for k, fit, clipped in scales:
        err = fit.sup_error
        resolved = err < floor
        step = None
        if prev_error is not None and prev_error > 0.0 and err > 0.0:
            step = float(np.log(err / prev_error) / np.log(eta))
        entries.append(
            DecayScale(
                k=k,
                radius=eta**k,
                fit=fit,
                sup_error=err,
                step_exponent=step,
                resolved=resolved,
                clipped=clipped,
            )
        )
        prev_error = err

    usable = [e for e in entries if not e.resolved and not e.clipped]
    if len(usable) >= 2:
        xs = np.array([e.k * np.log(eta) for e in usable])
        ys = np.log(np.array([e.sup_error for e in usable]))
        slope, intercept = np.polyfit(xs, ys, 1)
        residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
        alpha = float(min(1.0, max(slope - 1.0, ALPHA_FLOOR)))
    else:
        alpha = 1.0
        residual = 0.0

    return DecayReport(
        eta=float(eta),
        center_x=tuple(float(c) for c in x0),
        center_t=float(t0),
        mode=mode,
        entries=tuple(entries),
        alpha_est=alpha,
        regression_residual=residual,
    )


def _fitted_scales(
    u: GridFunction, x0: np.ndarray, t0: float, eta: float, K: int, boundary: bool,
    fit_clipped: bool,
) -> list[tuple[int, LinearFit, bool]]:
    """(k, fit, clipped) for k = 0..K; clipped scales only when fit_clipped.

    (x0, t0) is a center _cylinder_center has checked; containment is
    the test cylinder_nodes records, asked before any node is built.
    """
    xs = x0.tolist()
    scales = []
    for k in range(K + 1):
        r = eta**k
        if not fit_clipped and not _contained(u.grid, xs, t0, r):
            continue
        cyl = cylinder_nodes(u.grid, (x0, t0), r)
        fit = _fit_over_cylinder(u, cyl, boundary=boundary)
        scales.append((k, fit, not cyl.contained))
    return scales


def _decay_scales(eta, K) -> tuple[float, int | None]:
    """The checked eta and K of a decay sequence; K stays None for the deepest scale."""
    eta = _real_number(eta, "eta", _UNIT_INTERVAL)
    return eta, None if K is None else _real_number(K, "K", _NONNEGATIVE, integer=True)


def _decay_arguments(grid: Grid, center, eta, K) -> tuple[np.ndarray, float, float, int]:
    """The checked center (x0, t0), eta and K of a decay sequence; K defaults to the deepest."""
    x0, t0 = _cylinder_center(grid, center)
    eta, K = _decay_scales(eta, K)
    return x0, t0, eta, _max_scales(grid, x0, eta) if K is None else K


def decay_sequence(
    u: GridFunction, center, eta: float = 0.5, K: int | None = None,
    fit_clipped: bool = True,
) -> DecayReport:
    """Affine-fit errors on Q_{eta^k}(center) for k = 0..K.

    K defaults to the deepest scale keeping three nodes per axis.
    center is (x0, t0); it is normally a node, but any point inside
    the box is accepted so staggered-interface studies can center on
    the hyperplane between nodes.  With fit_clipped false the clipped
    scales are neither built nor fitted and entries lists only the
    contained ones; alpha_est and regression_residual are the same.
    """
    x0, t0, eta, K = _decay_arguments(u.grid, center, eta, K)
    scales = _fitted_scales(u, x0, t0, eta, K, boundary=False, fit_clipped=fit_clipped)
    return _assemble_report(u, x0, t0, eta, scales, mode="interior")


def _require_zero_face(u: GridFunction, need: str) -> None:
    """FaceDataError, stating need, unless u vanishes on the face up to FACE_TOL."""
    worst = float(np.max(np.abs(u.data[..., 0])))
    tol = FACE_TOL * (1.0 + u.sup_norm)
    if worst > tol:
        raise FaceDataError(f"face values reach {worst:.3e} > {tol:.3e}; {need}")


def boundary_decay_sequence(
    u: GridFunction,
    eta: float = 0.5,
    K: int | None = None,
    center=None,
    fit_clipped: bool = True,
) -> DecayReport:
    """One-parameter fits a * x_n over half cylinders at a face point.

    The field must vanish on the face {x_n = 0}: this is the reduced
    setting after subtracting the affine part of the boundary data.
    The fitted slopes live in entry b[n-1] of each scale's fit.
    fit_clipped is as in decay_sequence.
    """
    grid = u.grid
    if not grid.half_space:
        raise InputError("boundary decay needs a half-space grid")
    if center is None:
        center = (np.zeros(grid.n_dim), 0.0)
    x0, t0, eta, K = _decay_arguments(grid, center, eta, K)
    if abs(x0[-1]) > 1e-12:
        raise InputError(
            f"boundary decay centers on the face x_n = 0, got x_n = {x0[-1]}"
        )
    _require_zero_face(
        u, "subtract the boundary data's affine part before the boundary decay study"
    )
    scales = _fitted_scales(u, x0, t0, eta, K, boundary=True, fit_clipped=fit_clipped)
    return _assemble_report(u, x0, t0, eta, scales, mode="boundary")


@dataclass(frozen=True)
class CauchyCheckReport:
    """Geometric-decay check on consecutive fit coefficients."""

    passed: bool
    margins: tuple[float, ...]
    smallest_passing_c1: float
    mode: str


def coefficient_cauchy_check(
    report: DecayReport, c1: float, alpha: float
) -> CauchyCheckReport:
    """Verify the coefficient increments against the geometric bound.

    Interior mode: |a_k - a_{k-1}| + eta^k |b_k - b_{k-1}| must stay
    below 2 c1 eta^{(k-1)(1+alpha)}.  Boundary mode drops the value
    coefficient and checks |a_k - a_{k-1}| <= c1 eta^{(k-1) alpha} for
    the fitted face slopes.  Also reports the smallest c1 that would
    pass every scale.
    """
    c1 = _real_number(c1, "c1", _POSITIVE)
    alpha = _real_number(alpha, "alpha", _EXPONENT)
    eta = report.eta
    margins = []
    worst_ratio = 0.0
    for prev, cur in zip(report.entries, report.entries[1:]):
        # each bound is read at the entry's own k, so a report that
        # starts past k = 0 (clipped scales left out) is checked as well
        k = cur.k
        if k != prev.k + 1:
            raise InputError(f"Cauchy check needs consecutive scales, got k = {prev.k}, {k}")
        if report.mode == "boundary":
            n = len(cur.fit.b)
            delta = abs(cur.fit.b[n - 1] - prev.fit.b[n - 1])
            unit_bound = eta ** ((k - 1) * alpha)
        else:
            delta = abs(cur.fit.a - prev.fit.a) + eta**k * float(
                np.linalg.norm(cur.fit.b - prev.fit.b)
            )
            unit_bound = 2.0 * eta ** ((k - 1) * (1.0 + alpha))
        margins.append(c1 * unit_bound - delta)
        worst_ratio = max(worst_ratio, delta / unit_bound)
    passed = all(m >= 0.0 for m in margins)
    return CauchyCheckReport(
        passed=passed,
        margins=tuple(margins),
        smallest_passing_c1=float(worst_ratio),
        mode=report.mode,
    )


def odd_reflection(u: GridFunction) -> GridFunction:
    """Extend a half-space field oddly across the face to the full box.

    Requires (near-)zero face values; the output face is set to exactly
    zero so the result is odd in x_n bit for bit, and it reproduces u
    on x_n > 0 exactly.
    """
    grid = u.grid
    if not grid.half_space:
        raise InputError("odd reflection needs a half-space grid")
    _require_zero_face(u, "odd reflection needs zero Dirichlet data on the face")
    full = replace(grid, half_space=False)
    n_half = grid.steps_per_half_width
    out = np.empty((grid.n_time_levels,) + full.spatial_shape)
    out[..., n_half:] = u.data
    out[..., n_half] = 0.0
    out[..., :n_half] = -u.data[..., :0:-1]
    return GridFunction(grid=full, data=out)


def rescale(
    u: GridFunction, fit: LinearFit | None, r: float, alpha: float
) -> GridFunction:
    """Zoom u into Q_r and renormalize: v(y, s) = (u(ry, r^2 s) - L(ry)) / r^(1+alpha).

    The output lives on the reference cylinder grid (extents 1, steps
    h/r and tau/r^2) and every output node copies exactly one input
    node; no interpolation happens.  r must divide the lattice: r/h
    and r^2/tau integers, r <= R, r^2 <= T.
    """
    grid = u.grid
    r = _real_number(r, "rescaling radius", _POSITIVE)
    alpha = _real_number(alpha, "alpha", _EXPONENT)
    steps = r / grid.h
    depth = r * r / grid.tau
    if (
        abs(steps - round(steps)) > 1e-9
        or abs(depth - round(depth)) > 1e-9
        or r > grid.spatial_extent + 1e-12
        or r * r > grid.time_extent + 1e-12
    ):
        hints = []
        scale = 1.0
        while len(hints) < 4 and scale >= grid.h / 2:
            s_ok = abs(scale / grid.h - round(scale / grid.h)) < 1e-9
            d_ok = abs(scale * scale / grid.tau - round(scale * scale / grid.tau)) < 1e-9
            if s_ok and d_ok and scale <= grid.spatial_extent and scale * scale <= grid.time_extent:
                hints.append(scale)
            scale /= 2.0
        raise AlignmentError(
            f"radius {r} does not align with h={grid.h}, tau={grid.tau} "
            f"(valid dyadic radii include {hints})"
        )

    ref = replace(grid, h=grid.h / r, tau=grid.tau / (r * r), spatial_extent=1.0, time_extent=1.0)
    axis_maps = []
    for i in range(grid.n_dim):
        x = r * ref.axis_coords(i)
        src = grid.axis_coords(i)
        idx = np.rint((x - src[0]) / grid.h).astype(int)
        if np.max(np.abs(src[idx] - x)) > 1e-12 * (1.0 + grid.spatial_extent):
            raise AlignmentError(
                f"rescaled nodes on axis {i} fall between lattice nodes"
            )
        axis_maps.append(idx)
    t = r * r * ref.time_values
    t_idx = np.rint((t + grid.time_extent) / grid.tau).astype(int)

    selected = u.data[np.ix_(t_idx, *axis_maps)]
    if fit is not None:
        mesh = ref.coordinate_mesh()
        lin = np.zeros(ref.spatial_shape)
        for i in range(grid.n_dim):
            lin = lin + fit.b[i] * (r * mesh[i] - fit.cylinder.center_x[i])
        lin = lin + fit.a
        selected = selected - lin[None, ...]
    return GridFunction(grid=ref, data=selected / r ** (1.0 + alpha))


def pointwise_c1a_norm(
    u: GridFunction, point, alpha: float, eta: float = 0.5
) -> float:
    """Smallest C with |u - L*| <= C (|x-x0| + sqrt(t0-t))^(1+alpha).

    L* is the finest-scale affine fit at the point; the max runs over
    the largest centered cylinder the lattice contains, restricted to
    parabolic distances at or above the finest fitted radius (below
    that scale the fit itself is the resolution limit).
    """
    alpha = _real_number(alpha, "alpha", _EXPONENT)
    return _seminorm(u, decay_sequence(u, point, eta=eta), alpha)


def _seminorm(u: GridFunction, report: DecayReport, alpha: float) -> float:
    """The pointwise C^{1,alpha} ratio of u against a decay report's finest fit.

    Serves both modes: a boundary fit has a = 0 and only the x_n slope.
    """
    fine = report.entries[-1]
    coarse = next((e for e in report.entries if not e.clipped), report.entries[0])
    cyl = coarse.fit.cylinder
    offsets = cyl.spatial_offsets()
    values = cyl.values(u)
    predicted = fine.fit.a + offsets @ fine.fit.b
    space_dist = np.linalg.norm(offsets, axis=1)
    time_dist = np.sqrt(np.maximum(-cyl.time_offsets(), 0.0))
    dist = space_dist[None, :] + time_dist[:, None]
    deviation = np.abs(values - predicted[None, :])
    usable = dist >= fine.radius * (1.0 - 1e-12)
    if not np.any(usable):
        return 0.0
    ratios = deviation[usable] / dist[usable] ** (1.0 + alpha)
    return float(np.max(ratios))


@dataclass(frozen=True)
class PointReport:
    kind: str
    center_x: tuple[float, ...]
    center_t: float
    alpha_est: float
    seminorm: float


@dataclass(frozen=True)
class GlobalReport:
    """Pointwise exponents and seminorms over a set of study points."""

    alpha: float
    rows: tuple[PointReport, ...]
    max_seminorm: float
    min_alpha_est: float


def global_report(
    u: GridFunction, alpha: float, interior_points=(), boundary_points=()
) -> GlobalReport:
    """Tabulate decay exponents and seminorm estimates point by point.

    Interior rows use the affine-fit machinery; boundary rows (face
    points of a half-space grid) use the one-parameter face fits with
    the deviation measured against the finest fitted slope.
    """
    alpha = _real_number(alpha, "alpha", _EXPONENT)

    def row(kind: str, rep: DecayReport) -> PointReport:
        return PointReport(
            kind=kind,
            center_x=rep.center_x,
            center_t=rep.center_t,
            alpha_est=rep.alpha_est,
            seminorm=_seminorm(u, rep, alpha),
        )

    rows = [row("interior", decay_sequence(u, pt, eta=0.5)) for pt in interior_points]
    rows += [row("boundary", boundary_decay_sequence(u, center=pt)) for pt in boundary_points]
    if not rows:
        raise InputError("global report needs at least one study point")
    return GlobalReport(
        alpha=alpha,
        rows=tuple(rows),
        max_seminorm=max(r.seminorm for r in rows),
        min_alpha_est=min(r.alpha_est for r in rows),
    )


# ---------------------------------------------------------------------------
# Serialization of decay reports.


def decay_report_rows(report: DecayReport) -> tuple[list, list]:
    """CSV header and one row per scale: k, radius, a, b components, E_k, step exponent."""
    n = len(report.center_x)  # a lean report may list no scale at all
    header = ["k", "radius", "a", *(f"b{i + 1}" for i in range(n)), "E_k", "step_exponent"]
    rows = [
        [e.k, e.radius, e.fit.a, *e.fit.b.tolist(), e.sup_error, e.step_exponent]
        for e in report.entries
    ]
    return header, rows


def decay_report_payload(report: DecayReport) -> dict:
    """The report as plain data; each scale's fit is given by its a and b."""
    entries = []
    for e in report.entries:
        entry = asdict(replace(e, fit=None))
        del entry["fit"]
        entries.append(entry | {"a": e.fit.a, "b": e.fit.b.tolist()})
    return asdict(replace(report, entries=())) | {"entries": entries}
