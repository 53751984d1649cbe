"""Explicit time marching for parabolic Dirichlet problems on the ball.

The spatial domain is the open Euclidean ball |x| < R inside the
lattice box (intersected with x_n > 0 on half-space grids).  Interior
nodes advance by explicit Euler with the operator and the forcing
frozen at the current level; every other lattice node, the shell,
copies the boundary data at every level, which makes the marched
function a discrete Dirichlet solution on the parabolic cylinder.

Boundary data g and forcing f may be full GridFunctions or callables
(x, t) -> array, where x is a list of one coordinate array per axis.
The arrays broadcast together, and a callable must act elementwise on
them.  g is evaluated on the sparse mesh of the whole lattice for the
bottom level and on flat arrays of the shell's node coordinates for
every later one; f on the sparse mesh of the axis-0 slabs 1..N-2,
which hold the step range below.  A scalar result stands for a
constant field.

The march's own arithmetic allocates nothing per step: the stencils
write into one workspace that the march creates for itself (never a
module-level one, so threads can march at the same time), and each
level is written in place into the preallocated history.  A level is
stepped as one flat vector, on the range [lo, hi) that holds its
interior nodes and the ghost positions between interior rows (see
operators._Workspace).  Each step first writes the stepped range into
the next level and then scatters g over the shell, which overwrites
the ghosts and the nodes outside the ball.  The march keeps the
shell's indices and, for a callable g, their coordinates; what a
callable field returns, and the stack of Pucci Hessians that reach
the eigen-solver, are still fresh arrays.  The history itself is
levels x nodes; eps-continuation reads its distances level by level,
so it holds no temporary of that size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, CFLViolationError, InputError
from .grid import Grid, GridFunction, _ball_mask
from .operators import (
    HeatOp,
    PLaplaceOp,
    PLaplaceParams,
    PucciMinusOp,
    PucciPlusOp,
    _slice_operator_value,
    _Workspace,
)

__all__ = [
    "DirichletProblem",
    "EpsilonContinuationReport",
    "solve_dirichlet",
    "solve_p_laplace_regularized",
    "epsilon_continuation",
    "cfl_limit",
]

CFL_SAFETY = 0.9


def cfl_limit(op, grid: Grid) -> float:
    """Largest admissible tau/h^2 for the operator's diffusion bound."""
    return CFL_SAFETY / (2.0 * grid.n_dim * op.cfl_coefficient)


def _field_values(field, grid: Grid, level: int, coords, nodes, shape) -> np.ndarray:
    """The field at one level on a block of lattice nodes of the given shape.

    nodes are the block's flat indices (or a slice) in a level of a
    GridFunction field; a callable is evaluated on coords, the block's
    coordinates, one array per axis that broadcast together to shape.
    The result has that shape, or is a 0-d array for a scalar.
    """
    if isinstance(field, GridFunction):
        return field.data[level].reshape(-1)[nodes].reshape(shape)
    vals = np.asarray(field(coords, grid.time_value(level)), dtype=float)
    if vals.ndim == 0 or vals.shape == shape:
        return vals
    try:
        return np.broadcast_to(vals, shape)
    except ValueError:
        raise InputError(
            f"a callable field returned shape {vals.shape} on coordinates of "
            f"shape {shape}; it must act elementwise on them"
        ) from None


def _check_field(field, grid: Grid, name: str):
    if isinstance(field, GridFunction):
        if field.grid != grid:
            raise InputError(f"{name} lives on a different grid")
    elif not callable(field):
        raise InputError(f"{name} must be a GridFunction or a callable field")


@dataclass(frozen=True)
class DirichletProblem:
    """Operator tag, forcing f, boundary data g, and the grid to march on.

    g supplies the bottom slice and every non-interior node at every
    later level (lateral shell, box corners outside the ball, and the
    flat face on half-space grids).
    """

    op_tag: object
    f: object
    g: object
    grid: Grid

    def __post_init__(self):
        if not isinstance(self.grid, Grid):
            raise InputError("grid must be a Grid")
        if not hasattr(self.op_tag, "cfl_coefficient"):
            raise InputError(f"unknown operator tag {self.op_tag!r}")
        _check_field(self.f, self.grid, "forcing f")
        _check_field(self.g, self.grid, "boundary data g")
        ratio = self.grid.tau / (self.grid.h * self.grid.h)
        limit = cfl_limit(self.op_tag, self.grid)
        if ratio > limit * (1.0 + 1e-12):
            raise CFLViolationError(
                f"tau/h^2 = {ratio:.6g} exceeds the explicit-scheme limit "
                f"{limit:.6g} = {CFL_SAFETY}/(2 n Lambda_eff) for {self.op_tag!r}"
            )


def solve_dirichlet(prob: DirichletProblem) -> GridFunction:
    """March the problem to the top level and return the full field.

    Level 0 is g on every node.  Each later level is written in place:
    u[m] + tau (F(u[m]) + f) goes straight into the step range of
    u[m+1], then g, evaluated on the shell nodes only, is scattered over
    the shell: every node that is not stepped, i.e. outside the open
    ball or on the box's edge (on staggered grids the ball reaches the
    last axis's edge nodes).  The finiteness guard reads every level,
    level 0 and the boundary nodes included.
    """
    grid = prob.grid
    shape = grid.spatial_shape
    if any(s < 3 for s in shape):
        raise InputError("grid has no interior column to update")
    ws = _Workspace(shape)
    lo, hi = ws.lo, ws.hi
    stepped = np.zeros(int(np.prod(shape)), dtype=bool)
    stepped[lo:hi] = _ball_mask(grid, grid.spatial_extent).reshape(-1)[lo:hi] & ws.valid
    shell = np.flatnonzero(~stepped)
    shell_coords = None
    if callable(prob.g):
        nodes = np.unravel_index(shell, shape)
        shell_coords = [grid.axis_coords(i)[j] for i, j in enumerate(nodes)]
    mesh = grid.coordinate_mesh()
    # f on the slabs 1..N-2 along axis 0, whose flat range holds
    # [lo, hi) shifted by one slab
    slab = ws.strides[0]
    slabs = slice(slab, (shape[0] - 1) * slab)
    slab_mesh = [mesh[0][1:-1]] + mesh[1:]
    slab_shape = (shape[0] - 2,) + shape[1:]
    f_range = slice(lo - slab, hi - slab)
    finite = np.empty(shape, dtype=bool)
    tau = grid.tau

    u = np.empty((grid.n_time_levels,) + shape)
    flat = u.reshape(grid.n_time_levels, -1)
    u[0] = _field_values(prob.g, grid, 0, mesh, slice(None), shape)
    # overflow inside a step is legitimate state, not a numpy error: the
    # finiteness guard below turns it into a diagnosable BlowUpError
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(grid.n_time_levels):
            if m > 0:
                # u[m-1] + tau * (F(u[m-1]) + f), one ufunc per operation
                value = _slice_operator_value(prob.op_tag, u[m - 1], grid.h, ws)
                forcing = _field_values(prob.f, grid, m - 1, slab_mesh, slabs, slab_shape)
                value += forcing if forcing.ndim == 0 else forcing.reshape(-1)[f_range]
                np.multiply(tau, value, out=value)
                np.add(flat[m - 1, lo:hi], value, out=flat[m, lo:hi])
                boundary = _field_values(prob.g, grid, m, shell_coords, shell, shell.shape)
                flat[m, shell] = boundary
            if not np.isfinite(u[m], out=finite).all():
                raise BlowUpError(
                    f"solution left the finite range at step {m} "
                    f"(t = {grid.time_value(m)})",
                    step=m,
                )
    return GridFunction._of_finite_levels(grid, u)


def solve_p_laplace_regularized(
    p: float, epsilon: float | None, f, g, grid: Grid
) -> GridFunction:
    """Explicit march of the regularized normalized p-Laplace flow.

    Coefficients are rebuilt each step from the current level's
    centered gradient (lagged coefficients).  epsilon defaults to the
    spatial step, tying the regularization error to the truncation
    order; epsilon = 0 is refused, the exact operator is analysis-only.
    """
    if epsilon is None:
        epsilon = grid.h
    if epsilon <= 0.0:
        raise InputError("the marched p-Laplacian needs epsilon > 0")
    params = PLaplaceParams(p=p, epsilon=float(epsilon))
    prob = DirichletProblem(op_tag=PLaplaceOp(params), f=f, g=g, grid=grid)
    return solve_dirichlet(prob)


@dataclass(frozen=True)
class EpsilonContinuationReport:
    """Successive sup-distances along a decreasing regularization schedule.

    distances[k] = sup |v_{eps_k} - v_{eps_{k+1}}|, None when either
    solve failed.  cauchy flags monotone decrease (ties allowed) of the
    recorded distances, the discrete stand-in for uniform convergence;
    it is None when any solve failed.
    """

    epsilons: tuple[float, ...]
    distances: tuple[float | None, ...]
    cauchy: bool | None
    failures: tuple[str, ...]


def _sup_distance(a: GridFunction, b: GridFunction, level: np.ndarray) -> float:
    """max |a - b| over every node, one level at a time in a slice buffer.

    A max is exact, so this equals the whole-field max bit for bit
    without a temporary the size of the history.
    """
    dist = 0.0
    for la, lb in zip(a.data, b.data):
        np.subtract(la, lb, out=level)
        dist = max(dist, float(np.abs(level, out=level).max()))
    return dist


def epsilon_continuation(
    p: float, eps_schedule, f, g, grid: Grid
) -> tuple[list[GridFunction | None], EpsilonContinuationReport]:
    """Solve for each epsilon in a strictly decreasing schedule."""
    schedule = [float(e) for e in eps_schedule]
    if len(schedule) == 0:
        raise InputError("epsilon schedule is empty")
    if any(e <= 0.0 for e in schedule):
        raise InputError("epsilon schedule must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("epsilon schedule must be strictly decreasing")

    solutions: list[GridFunction | None] = []
    failures: list[str] = []
    for eps in schedule:
        try:
            solutions.append(solve_p_laplace_regularized(p, eps, f, g, grid))
        except Exception as exc:  # noqa: BLE001 - partial report by contract
            solutions.append(None)
            failures.append(f"epsilon={eps!r}: {exc}")

    level = np.empty(grid.spatial_shape)
    distances: list[float | None] = []
    for a, b in zip(solutions, solutions[1:]):
        if a is None or b is None:
            distances.append(None)
        else:
            distances.append(_sup_distance(a, b, level))
    if any(d is None for d in distances):
        cauchy = None
    else:
        cauchy = all(b <= a for a, b in zip(distances, distances[1:]))
    report = EpsilonContinuationReport(
        epsilons=tuple(schedule),
        distances=tuple(distances),
        cauchy=cauchy,
        failures=tuple(failures),
    )
    return solutions, report
