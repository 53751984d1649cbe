"""Scenario runners tying solver and decay analysis into desk-scale studies.

Each run_* function is a plain Python entry point.  ``SCENARIOS`` holds
one record per config tag (CLI subcommand, executor, config keys), which
config.py and cli.py read.  Executors pass the keys a ScenarioConfig sets
onto the runners, so the runners' own defaults apply; ``execute`` renders
report.json and report.csv from the result dataclasses they return.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from itertools import zip_longest

import numpy as np

from ..errors import _NONNEGATIVE, _POSITIVE, InputError, PucciLabError, _real_array, _real_number
from ..grid import Grid, GridFunction, _check_field, _field_values, restrict, sample, write_gridfn
from ..operators import (
    EllipticityPair,
    HeatOp,
    PLaplaceParams,
    PLaplaceOp,
    PucciMinusOp,
    PucciPlusOp,
    class_membership,
)
from ..regularity import (
    _decay_scales,
    boundary_decay_sequence,
    coefficient_cauchy_check,
    decay_report_payload,
    decay_report_rows,
    decay_sequence,
)
from ..solver import DirichletProblem, epsilon_continuation, solve_dirichlet
from .fields import make_field
from .report import provenance, write_report

__all__ = [
    "CounterexampleReport",
    "PSweepRow",
    "PSweepTable",
    "EllipticityRow",
    "BoundaryRow",
    "BoundaryReport",
    "sample_interior_points",
    "run_counterexample",
    "run_p_sweep",
    "run_ellipticity_sweep",
    "run_boundary_study",
    "SCENARIOS",
    "OPERATOR_KINDS",
    "execute",
]

_PRIMES = (2, 3, 5, 7, 11, 13, 17)

# The sampled points lie in the central box of this fraction of the extent.
_SAMPLING_BOX = 0.35


def _radical_inverse(index: int, base: int) -> float:
    inv = 1.0
    result = 0.0
    while index > 0:
        inv /= base
        result += inv * (index % base)
        index //= base
    return result


def sample_interior_points(grid: Grid, n_points: int, seed: int):
    """Deterministic low-discrepancy points snapped to the lattice, t = 0.

    The seed offsets the start of the Halton sequence, so different
    seeds give different (but reproducible) point sets.
    """
    n_points = _real_number(n_points, "n_points", _POSITIVE, integer=True)
    seed = _real_number(seed, "seed", _NONNEGATIVE, integer=True)
    if grid.n_dim > len(_PRIMES):
        raise InputError(f"point sampling supports up to {len(_PRIMES)} dimensions")
    half = _SAMPLING_BOX * grid.spatial_extent
    axes = [grid.axis_coords(i) for i in range(grid.n_dim)]
    points = []
    seen = set()
    index = seed + 1
    while len(points) < n_points and index < seed + 100000:
        snapped = []
        for d in range(grid.n_dim):
            raw = (2.0 * _radical_inverse(index, _PRIMES[d]) - 1.0) * half
            j = int(np.argmin(np.abs(axes[d] - raw)))
            snapped.append(float(axes[d][j]))
        index += 1
        key = tuple(snapped)
        if key in seen:
            continue
        seen.add(key)
        points.append((np.array(snapped), 0.0))
    if len(points) < n_points:
        raise InputError(
            f"could not place {n_points} distinct lattice points in the sampling box"
        )
    return points


def _field_sup(field, grid: Grid) -> float:
    """Sup of |field| over the lattice, one time slice at a time; it must be finite."""
    _check_field(field, grid, "forcing f")
    mesh, shape = grid.coordinate_mesh(), grid.spatial_shape
    worst = 0.0
    for m in range(grid.n_time_levels):
        top = float(np.abs(_field_values(field, grid, m, mesh, slice(None), shape)).max())
        if not np.isfinite(top):
            raise InputError(f"forcing f is not finite at level {m}")
        worst = max(worst, top)
    return worst


# ---------------------------------------------------------------------------
# Counterexample study.


@dataclass(frozen=True)
class CounterexampleReport:
    """Membership, interface Hessian jump, and decay for the kinked quadratic."""

    delta: float
    membership: object
    ratio: float
    expected_ratio: float
    decay: object
    strict_membership: object


def _interface_second_diff_ratio(u: GridFunction) -> float:
    grid = u.grid
    h = grid.h
    coords = grid.axis_coords(grid.n_dim - 1)
    i_neg = int(np.argmin(np.abs(coords + 1.5 * h)))
    i_pos = int(np.argmin(np.abs(coords - 1.5 * h)))
    center = tuple(s // 2 for s in grid.spatial_shape[:-1])
    line = u.data[-1][center]
    d2_neg = (line[i_neg - 1] - 2.0 * line[i_neg] + line[i_neg + 1]) / (h * h)
    d2_pos = (line[i_pos - 1] - 2.0 * line[i_pos] + line[i_pos + 1]) / (h * h)
    return float(d2_pos / d2_neg)


def run_counterexample(
    delta: float, grid: Grid | None = None, eta: float = 0.5, K: int | None = 5
) -> CounterexampleReport:
    """Full study of the kinked quadratic that separates S* from C^{1,1}.

    The profile solves the two-operator inequalities with a genuine
    Hessian jump across {x_n = 0}: membership in the wide class holds,
    an affine profile still fits at rate one, but no single uniformly
    parabolic equation with the same constant forcing can hold across
    the interface, which the strict (lam = Lam) check exposes.
    """
    delta = _real_number(delta, "delta", _POSITIVE)
    if grid is None:
        grid = Grid(
            n_dim=1, h=1.0 / 128, tau=1.0 / 128, spatial_extent=1.0,
            time_extent=1.0, stagger=True,
        )
    if not grid.stagger:
        raise InputError(
            "the counterexample grid must stagger the last axis so the "
            "interface falls between nodes"
        )
    u = sample(make_field({"name": "counterexample", "delta": delta}, grid.n_dim), grid)
    membership = class_membership(u, EllipticityPair(1.0, 1.0 + delta), f_bound=2.0)
    ratio = _interface_second_diff_ratio(u)
    decay = decay_sequence(u, (np.zeros(grid.n_dim), 0.0), eta=eta, K=K)
    strict = class_membership(u, EllipticityPair(1.0, 1.0), f_bound=1.0)
    return CounterexampleReport(
        delta=delta,
        membership=membership,
        ratio=ratio,
        expected_ratio=1.0 / (1.0 + delta),
        decay=decay,
        strict_membership=strict,
    )


# ---------------------------------------------------------------------------
# p-sweep.


@dataclass(frozen=True)
class PSweepRow:
    p: float
    status: str
    verdict: str | None = None
    worst_sub_slack: float | None = None
    worst_super_slack: float | None = None
    alpha_min: float | None = None
    alphas: tuple | None = None
    boundary_alphas: tuple | None = None
    meets_target: bool | None = None


@dataclass(frozen=True)
class PSweepTable:
    alpha_target: float
    points: tuple
    boundary_points: tuple
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.rows)

    @property
    def all_meet_target(self) -> bool:
        return all(r.status == "ok" and bool(r.meets_target) for r in self.rows)


def _membership_inside_ball(u, ell, f_bound):
    """Class check away from the Dirichlet shell and the initial transient.

    The marched field solves the flow only inside the inscribed ball;
    stencils straddling the sphere mix solved and copied values and
    say nothing about the equation.  Early levels can carry a kink
    from the initial data that the lagged-coefficient comparison sees
    as noise, so the check runs on the latest half of the time window
    over the concentric half-size box.
    """
    grid = u.grid
    half_depth = ((grid.n_time_levels - 1) // 2) * grid.tau
    return class_membership(
        restrict(u, grid.spatial_extent / 2.0, half_depth), ell, f_bound
    )


def _study(op, grid, f, g, f_bound, points, eta, K, boundary_points=()):
    """March op, check its class box op.ell, and fit decay at each point.

    Returns the membership report and the exponents at points and, by face
    fits, at boundary_points; only exponents are read, so clipped scales are not fitted.
    """
    u = solve_dirichlet(DirichletProblem(op_tag=op, f=f, g=g, grid=grid))
    membership = _membership_inside_ball(u, op.ell, f_bound)
    alphas = tuple(
        decay_sequence(u, pt, eta=eta, K=K, fit_clipped=False).alpha_est for pt in points
    )
    boundary_alphas = tuple(
        boundary_decay_sequence(u, eta=eta, K=K, center=pt, fit_clipped=False).alpha_est
        for pt in boundary_points
    )
    return membership, alphas, boundary_alphas


def run_p_sweep(
    p_list,
    alpha_target: float,
    grid: Grid,
    f,
    g,
    epsilon: float | None = None,
    n_points: int = 5,
    seed: int = 0,
    eta: float = 0.5,
    K: int | None = 3,
) -> PSweepTable:
    """Solve the regularized p-flow for each p and measure decay exponents.

    Failures of one p are isolated into a marked row; the remaining
    rows still fill in.  Points are Halton samples snapped to the
    lattice; on half-space grids their face projections get boundary
    fits as well.
    """
    alpha_target = _real_number(alpha_target, "alpha_target")
    eta, K = _decay_scales(eta, K)
    epsilon = grid.h if epsilon is None else _real_number(epsilon, "epsilon", _POSITIVE)
    p_values = [_real_number(p, "p") for p in p_list]
    points = sample_interior_points(grid, n_points, seed) if p_values else []
    if grid.half_space:
        boundary_points = [
            (np.concatenate([pt[0][:-1], [0.0]]), pt[1]) for pt in points
        ]
    else:
        boundary_points = []
    f_bound = _field_sup(f, grid) if p_values else 0.0
    rows = []
    for p in p_values:
        try:
            op = PLaplaceOp(PLaplaceParams(p=p, epsilon=epsilon))
            membership, alphas, boundary_alphas = _study(
                op, grid, f, g, f_bound, points, eta, K, boundary_points
            )
            alpha_min = min(alphas)
            row = PSweepRow(
                p=p,
                status="ok",
                verdict=membership.verdict,
                worst_sub_slack=membership.worst_sub_slack,
                worst_super_slack=membership.worst_super_slack,
                alpha_min=alpha_min,
                alphas=alphas,
                boundary_alphas=boundary_alphas,
                meets_target=bool(alpha_min >= alpha_target),
            )
        except PucciLabError as exc:
            row = PSweepRow(p=p, status=f"failed: {exc}")
        rows.append(row)
    return PSweepTable(
        alpha_target=alpha_target,
        points=tuple((tuple(x), t) for x, t in points),
        boundary_points=tuple((tuple(x), t) for x, t in boundary_points),
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Ellipticity sweep.


@dataclass(frozen=True)
class EllipticityRow:
    delta: float
    status: str
    verdict: str | None = None
    alpha_est: float | None = None


def run_ellipticity_sweep(
    delta_list, grid: Grid, f, g, eta: float = 0.5, K: int | None = 3
):
    """Solve the maximal-operator flow per delta and record decay at the origin.

    Each solved field is a genuine wide-class member for f_bound equal
    to the forcing sup, so the alpha_est column tracks how regularity
    responds to the ellipticity ratio; the trend is recorded, not
    asserted (the theory promises a direction, not numbers).
    """
    eta, K = _decay_scales(eta, K)
    deltas = [_real_number(d, "ellipticity offsets", _NONNEGATIVE) for d in delta_list]
    f_bound = _field_sup(f, grid) if deltas else 0.0
    origin = [(np.zeros(grid.n_dim), 0.0)]
    rows = []
    for delta in deltas:
        try:
            op = PucciPlusOp(EllipticityPair(1.0, 1.0 + delta))
            membership, (alpha,), _ = _study(op, grid, f, g, f_bound, origin, eta, K)
            row = EllipticityRow(delta, "ok", membership.verdict, alpha)
        except PucciLabError as exc:
            row = EllipticityRow(delta=delta, status=f"failed: {exc}")
        rows.append(row)
    return tuple(rows)


# ---------------------------------------------------------------------------
# Boundary study.


@dataclass(frozen=True)
class BoundaryRow:
    center_x: tuple
    center_t: float
    alpha_est: float
    slope_reduced: float
    slope_total: float
    cauchy_passed: bool | None


@dataclass(frozen=True)
class BoundaryReport:
    rows: tuple
    decay_reports: tuple


def run_boundary_study(
    grid: Grid,
    g=None,
    u=None,
    affine_value: float = 0.0,
    affine_gradient=None,
    lam: float = 1.0,
    eta: float = 0.5,
    K: int | None = None,
    points=None,
    c1: float | None = None,
    alpha: float | None = None,
) -> BoundaryReport:
    """Face-slope fits for a half-space field after removing its affine part.

    Works either on a directly given field u (sample mode) or on the
    heat flow solved from boundary data g (solve mode).  The reduced
    field u - L must vanish on the face; its fitted slope at the face
    estimates the normal derivative, reported both reduced and with
    the affine part's own normal slope added back.
    """
    if not grid.half_space:
        raise InputError("boundary study needs a half-space grid")
    affine_value = _real_number(affine_value, "affine_value")
    if (u is None) == (g is None):
        raise InputError("provide exactly one of u (sample mode) or g (solve mode)")
    if affine_gradient is None:
        affine_gradient = np.zeros(grid.n_dim)
    affine_gradient = _real_array(affine_gradient, "affine gradient")
    if affine_gradient.shape != (grid.n_dim,):
        raise InputError(f"affine gradient needs {grid.n_dim} components")

    if u is None:
        u = solve_dirichlet(
            DirichletProblem(op_tag=HeatOp(lam=lam), f=lambda mesh, t: 0.0, g=g, grid=grid)
        )
    field = sample(u, grid)

    mesh = grid.coordinate_mesh()
    affine = np.asarray(sum(affine_gradient[i] * mesh[i] for i in range(grid.n_dim)))
    reduced = GridFunction(
        grid=grid, data=field.data - (affine_value + affine)[None, ...]
    )

    if points is None:
        points = [(np.zeros(grid.n_dim), 0.0)]
    rows = []
    reports = []
    for pt in points:
        rep = boundary_decay_sequence(reduced, eta=eta, K=K, center=pt)
        reports.append(rep)
        slope = float(rep.entries[-1].fit.b[grid.n_dim - 1])
        cauchy_passed = None
        if c1 is not None and alpha is not None:
            cauchy_passed = coefficient_cauchy_check(rep, c1, alpha).passed
        rows.append(
            BoundaryRow(
                center_x=tuple(float(c) for c in np.atleast_1d(pt[0])),
                center_t=float(pt[1]),
                alpha_est=rep.alpha_est,
                slope_reduced=slope,
                slope_total=slope + float(affine_gradient[grid.n_dim - 1]),
                cauchy_passed=cauchy_passed,
            )
        )
    return BoundaryReport(rows=tuple(rows), decay_reports=tuple(reports))


# ---------------------------------------------------------------------------
# Config-driven execution (the CLI surface).


def _cells(rows, columns):
    """CSV cells: the named attributes of each result row."""
    return [[getattr(row, c) for c in columns] for row in rows]


_MEMBERSHIP_COLUMNS = ("verdict", "worst_sub_slack", "worst_super_slack", "tolerance")
_P_SWEEP_COLUMNS = (
    "p", "status", "verdict", "worst_sub_slack", "worst_super_slack", "alpha_min",
    "meets_target",
)
_ELLIPTICITY_COLUMNS = ("delta", "status", "verdict", "alpha_est")
_BOUNDARY_COLUMNS = ("alpha_est", "slope_reduced", "slope_total", "cauchy_passed")


def _membership_rows(report, prefix=""):
    return [[prefix + c, getattr(report, c)] for c in _MEMBERSHIP_COLUMNS]


def _exec_solve(config, out_dir):
    grid = config.grid
    params = dict(config.operator)
    op = OPERATOR_KINDS[params.pop("kind")].build(params, grid)
    u = solve_dirichlet(DirichletProblem(op_tag=op, grid=grid, **config.data))
    os.makedirs(out_dir, exist_ok=True)
    write_gridfn(u, os.path.join(out_dir, "solution.puc"))
    payload = {"sup_norm": u.sup_norm, "files": ["solution.puc"]}
    rows = [["sup_norm", u.sup_norm], ["solution_file", "solution.puc"]]
    return payload, ["quantity", "value"], rows


def _exec_class_check(config, out_dir):
    op = config.operator
    report = class_membership(
        sample(config.data["u"], config.grid),
        EllipticityPair(op["lam"], op["Lam"]),
        op["f_bound"],
        op.get("tolerance"),
    )
    return {"membership": asdict(report)}, ["quantity", "value"], _membership_rows(report)


def _exec_decay(config, out_dir):
    grid = config.grid
    an = dict(config.analysis)
    center = an.pop("center", ([0.0] * grid.n_dim, 0.0))
    report = decay_sequence(sample(config.data["u"], grid), center, **an)
    return {"decay": decay_report_payload(report)}, *decay_report_rows(report)


def _exec_boundary(config, out_dir):
    grid = config.grid
    data = dict(config.data)
    affine = data.pop("affine_part")
    # data is left holding exactly one of u (sample mode) and g (solve mode)
    report = run_boundary_study(
        grid, affine_value=affine["value"], affine_gradient=affine["gradient"],
        **data, **config.operator, **config.analysis,
    )
    payload = {
        "boundary": {
            "rows": [asdict(r) for r in report.rows],
            "decay": [decay_report_payload(rep) for rep in report.decay_reports],
        }
    }
    header = [f"x{i + 1}" for i in range(grid.n_dim)] + ["t", *_BOUNDARY_COLUMNS]
    rows = [
        [*r.center_x, r.center_t, *(getattr(r, c) for c in _BOUNDARY_COLUMNS)]
        for r in report.rows
    ]
    return payload, header, rows


def _exec_counterexample(config, out_dir):
    report = run_counterexample(grid=config.grid, **config.operator, **config.analysis)
    # the report's fields, with the decay report as plain data and the
    # interface ratio under its report key
    payload = asdict(replace(report, decay=None))
    payload["second_diff_ratio"] = payload.pop("ratio")
    payload["decay"] = decay_report_payload(report.decay)
    rows = [
        *_membership_rows(report.membership),
        ["second_diff_ratio", report.ratio],
        ["expected_ratio", report.expected_ratio],
        ["alpha_est", report.decay.alpha_est],
        *_membership_rows(report.strict_membership, prefix="strict_"),
    ]
    return payload, ["quantity", "value"], rows


def _exec_p_sweep(config, out_dir):
    an = dict(config.analysis)
    table = run_p_sweep(
        alpha_target=an.pop("alpha", 0.9), grid=config.grid, seed=config.seed,
        **config.operator, **config.data, **an,
    )
    # boundary_points is left out of the report
    payload = {
        "alpha_target": table.alpha_target,
        "points": table.points,
        "rows": [asdict(r) for r in table.rows],
    }
    return payload, list(_P_SWEEP_COLUMNS), _cells(table.rows, _P_SWEEP_COLUMNS)


def _exec_ellipticity_sweep(config, out_dir):
    rows = run_ellipticity_sweep(
        grid=config.grid, **config.operator, **config.data, **config.analysis
    )
    payload = {"rows": [asdict(r) for r in rows]}
    return payload, list(_ELLIPTICITY_COLUMNS), _cells(rows, _ELLIPTICITY_COLUMNS)


def _exec_eps_sweep(config, out_dir):
    report = epsilon_continuation(grid=config.grid, **config.operator, **config.data)
    # the last epsilon has no successor, so its distance cell is empty
    rows = list(zip_longest(report.epsilons, report.distances))
    return asdict(report), ["epsilon", "distance_to_next"], rows


# ---------------------------------------------------------------------------
# The scenario table: every config tag and the keys it reads.


@dataclass(frozen=True)
class OperatorKind:
    """A solve operator kind: build(section without kind, grid), and its keys."""

    build: Callable
    keys: tuple
    required: tuple = ()


_LAM_PAIR = ("lam", "Lam")

OPERATOR_KINDS = {
    "heat": OperatorKind(lambda params, grid: HeatOp(**params), ("lam",)),
    "pucci_plus": OperatorKind(
        lambda params, grid: PucciPlusOp(EllipticityPair(**params)), _LAM_PAIR, _LAM_PAIR
    ),
    "pucci_minus": OperatorKind(
        lambda params, grid: PucciMinusOp(EllipticityPair(**params)), _LAM_PAIR, _LAM_PAIR
    ),
    # epsilon defaults to the grid spacing
    "p_laplace": OperatorKind(
        lambda params, grid: PLaplaceOp(PLaplaceParams(**{"epsilon": grid.h, **params})),
        ("p", "epsilon"),
        ("p",),
    ),
}


@dataclass(frozen=True)
class Scenario:
    """A config tag: the subcommand that runs it, its executor, its keys.

    operator, data and analysis are the keys each section may set, and
    required those a config must set, in whichever section allows them
    (no two sections share a key name).  An operator section that may
    set kind also takes that kind's keys from OPERATOR_KINDS.
    """

    subcommand: str
    executor: Callable
    operator: tuple = ()
    data: tuple = ()
    analysis: tuple = ()
    required: tuple = ()


SCENARIOS = {
    "solve": Scenario(
        "solve", _exec_solve, operator=("kind",), data=("f", "g"), required=("kind", "f", "g")
    ),
    "class_check": Scenario(
        "check", _exec_class_check, operator=("lam", "Lam", "f_bound", "tolerance"),
        data=("u",), required=("lam", "Lam", "f_bound", "u"),
    ),
    "decay": Scenario(
        "decay", _exec_decay, data=("u",), analysis=("eta", "K", "center"), required=("u",)
    ),
    "boundary": Scenario(
        "boundary", _exec_boundary, operator=("lam",), data=("affine_part", "u", "g"),
        analysis=("eta", "K", "c1", "alpha", "points"), required=("affine_part",),
    ),
    "counterexample": Scenario(
        "counterexample", _exec_counterexample, operator=("delta",), analysis=("eta", "K"),
        required=("delta",),
    ),
    "p_sweep": Scenario(
        "sweep-p", _exec_p_sweep, operator=("p_list", "epsilon"), data=("f", "g"),
        analysis=("alpha", "n_points", "eta", "K"), required=("p_list", "f", "g"),
    ),
    "ellipticity_sweep": Scenario(
        "sweep-ellipticity", _exec_ellipticity_sweep, operator=("delta_list",),
        data=("f", "g"), analysis=("eta", "K"), required=("delta_list", "f", "g"),
    ),
    "eps_sweep": Scenario(
        "eps-continuation", _exec_eps_sweep, operator=("p", "eps_schedule"), data=("f", "g"),
        required=("p", "eps_schedule", "f", "g"),
    ),
}


def execute(config, out_dir: str):
    """Run the configured scenario and write report.json / report.csv."""
    payload, header, rows = SCENARIOS[config.scenario].executor(config, out_dir)
    document = {
        "provenance": provenance(config.grid, config.seed, config.scenario),
        "result": payload,
    }
    return write_report(out_dir, document, header, rows)
