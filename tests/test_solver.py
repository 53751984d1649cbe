"""Explicit marching: exactness, monotonicity, stability guards."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from puccilab.errors import BlowUpError, CFLViolationError, InputError
from puccilab.grid import Grid, GridFunction, _ball_mask, sample
from puccilab import solver as solver_module
from puccilab.linalg import jacobi_eigh_batch
from puccilab.operators import (
    EllipticityPair,
    HeatOp,
    PLaplaceOp,
    PLaplaceParams,
    PucciMinusOp,
    PucciPlusOp,
    _eigen_value_sums,
    _hessian_stack,
    class_membership,
    pde_residual,
)
from puccilab.solver import (
    DirichletProblem,
    cfl_limit,
    epsilon_continuation,
    solve_dirichlet,
    solve_p_laplace_regularized,
)
from test_operators import _count_eigen_rows

np.random.seed(42)

ZERO = lambda mesh, t: 0.0


def small_grid(n_dim=2, h=0.125, tau=1.0 / 512, T=0.0625):
    return Grid(n_dim=n_dim, h=h, tau=tau, spatial_extent=1.0, time_extent=T)


def test_heat_reproduces_caloric_quadratic_exactly():
    grid = small_grid()
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    u = solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g, grid=grid))
    exact = sample(g, grid)
    # the scheme is exact on quadratics; bit-for-bit on dyadic data
    assert np.array_equal(u.data, exact.data)


def test_constant_data_is_a_fixed_point():
    grid = small_grid(h=0.25)
    g = lambda mesh, t: 5.0
    u = solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g, grid=grid))
    assert np.all(u.data == 5.0)


def test_forcing_bound_controls_growth():
    # f = 1, g = 0: each step adds at most tau, so u <= elapsed time <= T
    grid = small_grid(h=0.25)
    one = lambda mesh, t: 1.0
    u = solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=one, g=ZERO, grid=grid))
    assert u.data.max() <= grid.time_extent + 1e-15
    assert u.data.min() >= 0.0


def test_discrete_maximum_principle():
    grid = small_grid(h=0.25)
    rng = np.random.default_rng(3)
    values = rng.uniform(-2.0, 3.0, size=(grid.n_time_levels,) + grid.spatial_shape)
    g = GridFunction(grid=grid, data=values)
    u = solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g, grid=grid))
    assert u.data.max() <= values.max() + 1e-12
    assert u.data.min() >= values.min() - 1e-12


def test_comparison_principle_exact():
    """Monotone scheme: raising the data never lowers the solution.

    The gap between the two solutions stays above the smallest data
    bump (the update is a convex combination under the CFL cap), which
    dwarfs accumulated rounding, so the ordering is clean in floats.
    """
    grid = small_grid(h=0.25)
    rng = np.random.default_rng(11)
    base = rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape)
    bump = rng.uniform(0.0, 1.0, size=base.shape)
    g1 = GridFunction(grid=grid, data=base)
    g2 = GridFunction(grid=grid, data=base + bump)
    u1 = solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g1, grid=grid))
    u2 = solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g2, grid=grid))
    assert np.all(u2.data >= u1.data)


def test_p2_matches_heat_bitwise():
    grid = small_grid()
    g = lambda mesh, t: np.sin(3.0 * mesh[0]) * np.cos(2.0 * mesh[1]) + 0.1 * t
    heat = solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g, grid=grid))
    plap = solve_p_laplace_regularized(2.0, grid.h, ZERO, g, grid)
    assert np.array_equal(heat.data, plap.data)


def test_mirror_symmetry_heat_bitwise():
    # dyadic data, dyadic steps, lam = 1: each update refines the value
    # lattice by 3 bits (tau/h^2 = 2^-3), so 12 steps stay inside the
    # 53-bit mantissa and the arithmetic is exact, symmetry included
    grid = small_grid(T=12.0 / 512)
    g = lambda mesh, t: mesh[0] ** 2 + np.abs(mesh[1]) + t * 0.0
    u = solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g, grid=grid))
    assert u.data.shape[0] == 13
    assert np.array_equal(u.data, u.data[:, ::-1, :])
    assert np.array_equal(u.data, u.data[:, :, ::-1])


def test_mirror_symmetry_pucci_to_rounding():
    # the eigenvalue path leaves the dyadic lattice, so symmetry holds
    # only up to accumulated rounding, a few ulps per step
    grid = small_grid()
    g = lambda mesh, t: mesh[0] ** 2 + np.abs(mesh[1]) + t * 0.0
    ell = EllipticityPair(1.0, 1.4)
    u = solve_dirichlet(DirichletProblem(op_tag=PucciPlusOp(ell), f=ZERO, g=g, grid=grid))
    scale = np.abs(u.data).max()
    assert np.abs(u.data - u.data[:, ::-1, :]).max() <= 1e-12 * scale
    assert np.abs(u.data - u.data[:, :, ::-1]).max() <= 1e-12 * scale


def test_cfl_gate():
    grid = Grid(n_dim=2, h=0.125, tau=0.125)
    with pytest.raises(CFLViolationError, match="tau/h"):
        DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=ZERO, grid=grid)
    # the limit scales inversely with the diffusion bound
    g1 = cfl_limit(HeatOp(lam=1.0), grid)
    g2 = cfl_limit(PucciPlusOp(EllipticityPair(1.0, 2.0)), grid)
    assert g2 == pytest.approx(g1 / 2.0)


def test_blow_up_detection():
    # checkerboard data near the float ceiling overflows the very first
    # second difference; the guard must name the offending step
    grid = small_grid(h=0.25)
    idx = np.indices(grid.spatial_shape).sum(axis=0)
    board = np.where(idx % 2 == 0, 1.7e308, -1.7e308)
    data = np.broadcast_to(board, (grid.n_time_levels,) + grid.spatial_shape).copy()
    g = GridFunction(grid=grid, data=data)
    with pytest.raises(BlowUpError) as info:
        solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g, grid=grid))
    assert info.value.step == 1


def test_callable_and_stored_fields_agree():
    grid = small_grid(h=0.25)
    g = lambda mesh, t: mesh[0] + 0.5 * t
    stored = sample(g, grid)
    u_callable = solve_dirichlet(
        DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g, grid=grid)
    )
    u_stored = solve_dirichlet(
        DirichletProblem(op_tag=HeatOp(lam=1.0), f=sample(ZERO, grid), g=stored, grid=grid)
    )
    assert np.array_equal(u_callable.data, u_stored.data)


def test_p_laplace_epsilon_rules():
    grid = small_grid(h=0.25)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    with pytest.raises(InputError):
        solve_p_laplace_regularized(2.5, 0.0, ZERO, g, grid)
    u = solve_p_laplace_regularized(2.5, None, ZERO, g, grid)  # default eps = h
    assert np.all(np.isfinite(u.data))


def test_dirichlet_problem_refuses_the_exact_p_laplacian():
    # on affine data the march would run to the end; it is refused before
    # a history exists, and the analysis side still takes epsilon = 0
    grid = small_grid(h=0.125, tau=2.0**-10, T=0.125)
    op = PLaplaceOp(PLaplaceParams(2.5, 0.0))
    g = lambda x, t: 1.0 + x[0] + 0.5 * x[1]
    with pytest.raises(InputError, match="epsilon = 0"):
        solve_dirichlet(DirichletProblem(op_tag=op, f=ZERO, g=g, grid=grid))
    u = sample(g, grid)
    assert pde_residual(u, op, sample(ZERO, grid)).sup_norm < 1e-12
    assert np.all(np.isfinite(op.slice_value(u.data[-1], grid.h)))


def test_epsilon_continuation_schedule_validation():
    grid = small_grid(h=0.25)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    with pytest.raises(InputError):
        epsilon_continuation(2.5, [], ZERO, g, grid)
    with pytest.raises(InputError):
        epsilon_continuation(2.5, [0.1, 0.2], ZERO, g, grid)
    with pytest.raises(InputError):
        epsilon_continuation(2.5, [0.1, -0.05], ZERO, g, grid)


def test_epsilon_continuation_p2_collapses():
    # at p = 2 the regularization does nothing, distances are exactly 0
    grid = small_grid(h=0.25)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    rep = epsilon_continuation(2.0, [0.25, 0.125, 0.0625], ZERO, g, grid)
    assert rep.distances == (0.0, 0.0)
    assert rep.cauchy is True
    assert rep.failures == ()


def test_epsilon_continuation_isolates_failures():
    grid = small_grid(h=0.25)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    boom = lambda mesh, t: 1e308
    rep = epsilon_continuation(2.5, [0.25, 0.125], boom, g, grid)
    assert rep.cauchy is None
    assert len(rep.failures) == 2


@pytest.mark.parametrize(
    "f, g, message",
    [
        (ZERO, 5, "boundary data g must be a GridFunction or a callable field"),
        (ZERO, lambda mesh, t: np.nan, "boundary data g is not finite at level 0"),
        ("zero", ZERO, "forcing f must be a GridFunction or a callable field"),
    ],
    ids=["g-not-a-field", "g-nan", "f-not-a-field"],
)
def test_epsilon_continuation_refuses_bad_data_before_any_march(f, g, message, monkeypatch):
    marches = []
    monkeypatch.setattr(solver_module, "solve_dirichlet", lambda prob: marches.append(prob))
    with pytest.raises(InputError, match=message):
        epsilon_continuation(2.5, [0.25, 0.125], f, g, small_grid(h=0.25))
    assert marches == []


def test_epsilon_continuation_lets_a_faulty_callable_raise():
    # only the package's own errors become failures; a bug in the
    # caller's field is not a result
    grid = small_grid(h=0.25)

    def faulty(mesh, t):
        raise TypeError("faulty field")

    with pytest.raises(TypeError, match="faulty field"):
        epsilon_continuation(2.5, [0.25, 0.125], ZERO, faulty, grid)


@pytest.mark.parametrize("tag", [object(), "heat", EllipticityPair(1.0, 2.0)])
def test_dirichlet_problem_refuses_what_is_not_an_operator_tag(tag):
    grid = small_grid(h=0.25)
    with pytest.raises(InputError, match="unknown operator tag"):
        DirichletProblem(op_tag=tag, f=ZERO, g=ZERO, grid=grid)


def test_operator_tags_carry_their_class_box():
    ell = EllipticityPair(0.5, 2.0)
    boxes = [
        (HeatOp(lam=0.75), (0.75, 0.75)),
        (PucciPlusOp(ell), (0.5, 2.0)),
        (PucciMinusOp(ell), (0.5, 2.0)),
        (PLaplaceOp(PLaplaceParams(p=1.5)), (0.5, 1.0)),
        (PLaplaceOp(PLaplaceParams(p=3.5)), (1.0, 2.5)),
    ]
    for op, (lam, Lam) in boxes:
        assert (op.ell.lam, op.ell.Lam) == (lam, Lam)
        assert op.cfl_coefficient == Lam
    # the two Pucci tags are siblings, so an isinstance test tells them apart
    assert not isinstance(PucciMinusOp(ell), PucciPlusOp)
    assert not isinstance(PucciPlusOp(ell), PucciMinusOp)
    assert PucciPlusOp(ell) != PucciMinusOp(ell)
    assert repr(PucciMinusOp(ell)) == f"PucciMinusOp(ell={ell!r})"


# ---------------------------------------------------------------------------
# The in-place march against an allocating reference.
#
# The reference below is the march as it was written before it stepped
# into preallocated buffers: every stencil and every step is a plain
# numpy expression that allocates its result.  The library march must
# give the same bits.


def _reference_operator(op, sl, h):
    n = sl.ndim
    h2 = h * h

    def at(moves):
        shift = [moves.get(k, 0) for k in range(n)]
        return sl[tuple(slice(1 + s, d - 1 + s) for s, d in zip(shift, sl.shape))]

    diag = [(at({i: 1}) - 2.0 * at({}) + at({i: -1})) / h2 for i in range(n)]
    trace = diag[0].copy()
    for d in diag[1:]:
        trace += d
    if isinstance(op, HeatOp):
        return op.lam * trace
    cross = {
        (i, j): (at({i: 1, j: 1}) - at({i: 1, j: -1}) - at({i: -1, j: 1}) + at({i: -1, j: -1}))
        / (4.0 * h2)
        for i in range(n)
        for j in range(i + 1, n)
    }
    if isinstance(op, PLaplaceOp):
        grad = [(at({i: 1}) - at({i: -1})) / (2.0 * h) for i in range(n)]
        norm2 = grad[0] * grad[0]
        for g in grad[1:]:
            norm2 = norm2 + g * g
        quad = grad[0] * grad[0] * diag[0]
        for i in range(1, n):
            quad = quad + grad[i] * grad[i] * diag[i]
        for (i, j), val in cross.items():
            quad = quad + 2.0 * (grad[i] * grad[j] * val)
        p, eps = op.params.p, op.params.epsilon
        return trace + (p - 2.0) * (quad / (norm2 + eps * eps))
    # Pucci: Gershgorin-certified rows take the trace, the rest is solved
    absc = {key: np.abs(c) for key, c in cross.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        psd = np.isfinite(trace)
        nsd = psd.copy()
        for i in range(n):
            terms = [absc[min(i, j), max(i, j)] for j in range(n) if j != i]
            radius = sum(terms[1:], terms[0]) if terms else 0.0
            psd &= diag[i] >= radius
            nsd &= diag[i] <= -radius
    rest = ~(psd | nsd)
    pos = np.where(psd, trace, 0.0)
    neg = np.where(nsd, trace, 0.0)
    if rest.any():
        values = jacobi_eigh_batch(_hessian_stack(diag, cross)[rest])
        pos[rest], neg[rest] = _eigen_value_sums(values)
    if isinstance(op, PucciPlusOp):
        return op.ell.Lam * pos + op.ell.lam * neg
    return op.ell.lam * pos + op.ell.Lam * neg


def _reference_march(prob):
    grid = prob.grid
    inner = tuple(slice(1, -1) for _ in range(grid.n_dim))
    mask_inner = _ball_mask(grid, grid.spatial_extent)[inner]

    def field(fld, level):
        if isinstance(fld, GridFunction):
            return fld.data[level]
        vals = np.asarray(fld(grid.coordinate_mesh(), grid.time_value(level)), dtype=float)
        return np.broadcast_to(vals, grid.spatial_shape)

    u = np.empty((grid.n_time_levels,) + grid.spatial_shape)
    u[0] = field(prob.g, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(grid.n_time_levels - 1):
            opval = _reference_operator(prob.op_tag, u[m], grid.h)
            forcing = field(prob.f, m)[inner]
            stepped = u[m][inner] + grid.tau * (opval + forcing)
            new = np.array(field(prob.g, m + 1), dtype=float)
            new[inner] = np.where(mask_inner, stepped, new[inner])
            assert np.all(np.isfinite(new))
            u[m + 1] = new
    return u


def _wavy_g(mesh, t):
    out = np.sin(3.0 * mesh[0] + t)
    for i, x in enumerate(mesh[1:], 1):
        out = out * np.cos((i + 1.0) * x) + 0.5 * mesh[0] * x
    return out + 0.25 * mesh[-1] ** 2


def _wavy_f(mesh, t):
    return 0.5 * np.cos(2.0 * mesh[0] - 3.0 * t)


_ELL = EllipticityPair(1.0, 1.5)
_OPS = {
    "heat": HeatOp(lam=1.0),
    "pucci_plus": PucciPlusOp(_ELL),
    "pucci_minus": PucciMinusOp(_ELL),
    **{f"p={p}": PLaplaceOp(PLaplaceParams(p=p, epsilon=1.0 / 16)) for p in (1.5, 2.1, 2.5)},
}
# tau / h^2 = 1/16 is inside every CFL limit here (the tightest is 0.1 at n = 3)
_GRIDS = {
    "n=1": Grid(n_dim=1, h=1.0 / 16, tau=2.0**-12, time_extent=2.0**-8),
    "n=2": Grid(n_dim=2, h=1.0 / 16, tau=2.0**-12, time_extent=2.0**-8),
    "n=3": Grid(n_dim=3, h=1.0 / 8, tau=2.0**-10, spatial_extent=0.5, time_extent=2.0**-6),
    "half": Grid(n_dim=2, h=1.0 / 16, tau=2.0**-12, time_extent=2.0**-8, half_space=True),
    # h^2, 4 h^2, 2 h and tau are no powers of two: every stencil divides
    "h=0.1": Grid(n_dim=2, h=0.1, tau=1e-3, time_extent=16e-3),
    "stagger": Grid(n_dim=2, h=1.0 / 16, tau=2.0**-12, time_extent=2.0**-8, stagger=True),
}


@pytest.mark.parametrize("stored", [False, True], ids=["callable", "stored"])
@pytest.mark.parametrize("grid_name", sorted(_GRIDS))
@pytest.mark.parametrize("op_name", sorted(_OPS))
def test_march_equals_the_allocating_reference_bitwise(op_name, grid_name, stored):
    grid = _GRIDS[grid_name]
    f, g = (sample(_wavy_f, grid), sample(_wavy_g, grid)) if stored else (_wavy_f, _wavy_g)
    prob = DirichletProblem(op_tag=_OPS[op_name], f=f, g=g, grid=grid)
    u = solve_dirichlet(prob)
    want = _reference_march(prob)
    assert np.array_equal(u.data.view(np.int64), want.view(np.int64))
    # the data move: the march is not a fixed point of g
    assert not np.array_equal(u.data, sample(_wavy_g, grid).data)


class _CountedZero(np.ndarray):
    """A 0-d forcing value that logs the arithmetic made with it, comparisons aside."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc.__name__ in ("add", "subtract", "multiply", "divide"):
            _CountedZero.log.append(ufunc.__name__)
        inputs = [np.asarray(a) if isinstance(a, _CountedZero) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def _signed_zero_g(mesh, t):
    # -0.0 on every node with x > 1/4, stepped nodes included, on each grid
    return np.where(mesh[0] > 0.25, -0.0, _wavy_g(mesh, t))


def _stepped_negative_zeros(g, grid):
    level = sample(g, grid).data[0][tuple(slice(1, -1) for _ in range(grid.n_dim))]
    inside = _ball_mask(grid, grid.spatial_extent)[tuple(slice(1, -1) for _ in range(grid.n_dim))]
    return int(np.count_nonzero((level == 0.0) & np.signbit(level) & inside))


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["+0", "-0"])
@pytest.mark.parametrize("g", [_wavy_g, _signed_zero_g], ids=["no-neg-zero", "neg-zero"])
@pytest.mark.parametrize("grid_name", ["n=1", "n=2", "n=3", "h=0.1"])
@pytest.mark.parametrize("op_name", ["p=1.5", "p=2.1", "p=2.5"])
def test_a_zero_forcing_is_skipped_only_where_level_0_has_no_stepped_negative_zero(
    op_name, grid_name, g, zero, monkeypatch
):
    grid = _GRIDS[grid_name]
    f = lambda mesh, t: zero
    prob = DirichletProblem(op_tag=_OPS[op_name], f=f, g=g, grid=grid)
    read = solver_module._field_values

    def counted(field, *args):
        vals = read(field, *args)
        return vals.view(_CountedZero) if field is f else vals

    monkeypatch.setattr(solver_module, "_field_values", counted)
    monkeypatch.setattr(_CountedZero, "log", [])
    u = solve_dirichlet(prob)
    assert np.array_equal(u.data.view(np.int64), _reference_march(prob).view(np.int64))
    negative_zeros = _stepped_negative_zeros(g, grid)
    assert (negative_zeros > 0) == (g is _signed_zero_g)
    if negative_zeros:
        # the add runs at every step, from forcing * h^2 (or / 1 at h = 0.1)
        assert _CountedZero.log == ["multiply"] * (grid.n_time_levels - 1)
    else:
        assert _CountedZero.log == []


_SCHEDULE = [1.0 / 16, 1.0 / 32, 1.0 / 64]


def _whole_field_distances(schedule, grid):
    """max |a - b| between independent marches of successive epsilons."""
    fields = [solve_p_laplace_regularized(2.5, e, _wavy_f, _wavy_g, grid) for e in schedule]
    return [float(np.max(np.abs(a.data - b.data))) for a, b in zip(fields, fields[1:])]


def test_continuation_distances_equal_the_whole_field_max():
    grid = _GRIDS["n=2"]
    rep = epsilon_continuation(2.5, _SCHEDULE, _wavy_f, _wavy_g, grid)
    want = tuple(_whole_field_distances(_SCHEDULE, grid))
    assert rep.distances == want
    assert all(d > 0.0 for d in want)
    assert rep.failures == () and rep.cauchy is not None


@pytest.mark.parametrize("failing", [1, 0], ids=["middle-fails", "first-fails"])
def test_a_failed_solve_voids_only_its_own_distances(monkeypatch, failing):
    # the rolling pair must not compare a solution with anything but its
    # schedule neighbour, nor lose a failure in the middle of the schedule
    from puccilab import solver

    grid = _GRIDS["n=2"]
    march = solver.solve_p_laplace_regularized

    def failing_at(p, eps, f, g, grid):
        if eps == _SCHEDULE[failing]:
            raise BlowUpError("planted failure", step=3)
        return march(p, eps, f, g, grid)

    monkeypatch.setattr(solver, "solve_p_laplace_regularized", failing_at)
    rep = epsilon_continuation(2.5, _SCHEDULE, _wavy_f, _wavy_g, grid)
    if failing == 1:
        assert rep.distances == (None, None)
    else:
        assert rep.distances == (None, _whole_field_distances(_SCHEDULE[1:], grid)[0])
    assert rep.cauchy is None
    assert rep.failures == (f"epsilon={_SCHEDULE[failing]!r}: planted failure",)


def _traced_peak(run):
    """Peak bytes traced while run() executes, and what it returns."""
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def test_march_memory_beyond_the_history_does_not_grow_with_levels():
    h, tau = 1.0 / 16, 2.0**-12
    for op in (_OPS["p=2.5"], _OPS["pucci_plus"]):
        extra = {}
        for levels in (32, 128, 32, 128):  # the first pair warms numpy's caches
            grid = Grid(n_dim=2, h=h, tau=tau, time_extent=(levels - 1) * tau)
            prob = DirichletProblem(op_tag=op, f=_wavy_f, g=_wavy_g, grid=grid)
            peak, u = _traced_peak(lambda: solve_dirichlet(prob))
            extra[levels] = peak - u.data.nbytes
        slice_bytes = u.data[0].nbytes
        # step buffers, mask, mesh and the callables' temporaries: a few
        # dozen slices, the same however many levels are marched
        assert extra[128] <= extra[32] + slice_bytes, (op, extra)
        assert extra[128] <= 40 * slice_bytes, (op, extra)


def test_distance_pass_allocates_no_history_sized_temporary():
    grid = Grid(n_dim=2, h=1.0 / 16, tau=2.0**-12, time_extent=127 * 2.0**-12)
    peak, rep = _traced_peak(
        lambda: epsilon_continuation(2.5, _SCHEDULE, _wavy_f, _wavy_g, grid)
    )
    history = grid.n_time_levels * int(np.prod(grid.spatial_shape)) * 8
    assert rep.failures == () and len(rep.distances) == 2
    # the rolling pair: a march's history beside its predecessor's, and
    # nothing else of that size
    assert peak - 2 * history < history / 4


@pytest.mark.parametrize(
    "bad_node, k",
    [((0, 4), 5), ((1, 1), 5), ((0, 0), 0)],
    ids=["lattice-edge", "box-corner-outside-the-ball", "bottom-level-corner"],
)
def test_non_finite_boundary_data_names_its_level_and_node(bad_node, k):
    # g turns non-finite at one non-interior node of level k only: on the
    # lattice edge, or at a node of the inner block outside the ball,
    # which keeps g's value.  The step that writes level k must raise,
    # and blame g, not the scheme; for k = 0 that is the bottom level, at
    # a corner no stencil reads.
    grid = small_grid(h=0.25)
    bad_x = [grid.axis_coords(i)[j] for i, j in enumerate(bad_node)]
    assert not _ball_mask(grid, grid.spatial_extent)[bad_node]

    def g(mesh, t):
        value = mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
        if t == grid.time_value(k):
            at_bad = (mesh[0] == bad_x[0]) & (mesh[1] == bad_x[1])
            return np.where(at_bad, np.nan, value)
        return value

    where = re.escape(f"boundary data g is not finite at level {k}, spatial index {bad_node}")
    with pytest.raises(InputError, match=where):
        solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=ZERO, g=g, grid=grid))


@pytest.mark.parametrize(
    "f, level",
    [(lambda mesh, t: np.nan, 0), (lambda mesh, t: np.where(t > -0.03, np.nan, 0.0 * mesh[1]), 17)],
    ids=["bottom-level", "later-level"],
)
def test_non_finite_forcing_is_an_input_error_not_a_blow_up(f, level):
    # step m reads f at level m - 1; a value there that is not finite is
    # bad input, as sample says, not a failing scheme
    grid = small_grid(h=0.25)
    where = f"forcing f is not finite at level {level}, spatial index (0, 0)"
    with pytest.raises(InputError, match=re.escape(where)):
        solve_dirichlet(DirichletProblem(op_tag=HeatOp(lam=1.0), f=f, g=ZERO, grid=grid))
    with pytest.raises(InputError, match=f"field is not finite at level {level},"):
        sample(f, grid)


@pytest.mark.parametrize(
    "grid",
    [
        _GRIDS["n=2"],
        _GRIDS["n=3"],
        _GRIDS["half"],
        Grid(n_dim=2, h=1.0 / 16, tau=2.0**-12, time_extent=2.0**-8, stagger=True),
    ],
    ids=["n=2", "n=3", "half", "stagger"],
)
def test_march_leaves_every_lattice_edge_node_to_g(grid):
    # The flat step range also covers edge nodes between interior rows;
    # on a staggered grid the open ball reaches the last axis's edge
    # nodes, and none of them may be stepped.
    prob = DirichletProblem(op_tag=_OPS["p=2.5"], f=_wavy_f, g=_wavy_g, grid=grid)
    u = solve_dirichlet(prob)
    edge = np.ones(grid.spatial_shape, dtype=bool)
    edge[tuple(slice(1, -1) for _ in range(grid.n_dim))] = False
    assert _ball_mask(grid, grid.spatial_extent)[edge].any() == grid.stagger
    assert np.array_equal(u.data[:, edge], sample(_wavy_g, grid).data[:, edge])


@pytest.mark.parametrize("grid_name", ["n=2", "n=3", "half", "stagger"])
def test_callables_see_the_shell_and_the_step_slabs_only(grid_name):
    # g is evaluated on the sparse mesh of every node for level 0 and on
    # the shell (every node that is not stepped) afterwards; f on the
    # sparse mesh of the slabs 1..N-2 along axis 0, the fewest whole
    # slabs that hold the flat step range [lo, hi), the first to the
    # last interior node
    grid = _GRIDS[grid_name]
    seen = {"f": [], "g": []}

    def recording(name, field):
        def call(x, t):
            seen[name].append((t, np.stack(np.broadcast_arrays(*x))))
            return field(x, t)

        return call

    f, g = recording("f", _wavy_f), recording("g", _wavy_g)
    solve_dirichlet(DirichletProblem(op_tag=_OPS["p=2.5"], f=f, g=g, grid=grid))
    shape = grid.spatial_shape
    nodes = np.stack([np.broadcast_to(x, shape).reshape(-1) for x in grid.coordinate_mesh()])
    inner = np.zeros(shape, dtype=bool)
    inner[tuple(slice(1, -1) for _ in shape)] = True
    shell = ~(_ball_mask(grid, grid.spatial_extent) & inner).reshape(-1)
    lo = np.ravel_multi_index((1,) * grid.n_dim, shape)
    hi = np.ravel_multi_index(tuple(s - 2 for s in shape), shape) + 1
    times = list(grid.time_values)
    assert [t for t, _ in seen["g"]] == times
    assert [t for t, _ in seen["f"]] == times[:-1]
    assert np.array_equal(seen["g"][0][1].reshape(grid.n_dim, -1), nodes)
    for _, x in seen["g"][1:]:
        assert np.array_equal(x, nodes[:, shell])
    slab = int(np.prod(shape[1:]))
    assert slab <= lo and hi <= (shape[0] - 1) * slab
    for _, x in seen["f"]:
        assert np.array_equal(x.reshape(grid.n_dim, -1), nodes[:, slab:-slab])


@pytest.mark.parametrize("field", ["f", "g"])
def test_a_callable_that_is_not_elementwise_is_an_input_error(field):
    # a lattice-shaped array, whatever coordinates the march passes
    grid = _GRIDS["n=2"]
    lattice = np.zeros(grid.spatial_shape)
    fields = {"f": _wavy_f, "g": _wavy_g, field: lambda x, t: lattice}
    prob = DirichletProblem(op_tag=HeatOp(lam=1.0), grid=grid, **fields)
    with pytest.raises(InputError, match="elementwise"):
        solve_dirichlet(prob)


@pytest.mark.parametrize("field", ["f", "g"])
def test_a_callable_that_returns_text_is_an_input_error(field):
    grid = _GRIDS["n=2"]
    fields = {"f": _wavy_f, "g": _wavy_g, field: lambda x, t: "a"}
    prob = DirichletProblem(op_tag=HeatOp(lam=1.0), grid=grid, **fields)
    with pytest.raises(InputError, match="real numbers"):
        solve_dirichlet(prob)


@pytest.mark.parametrize("grid_name", ["n=2", "n=3", "stagger"])
def test_stored_forcing_and_boundary_data_march_like_the_callables(grid_name):
    # the march reads a GridFunction on the same blocks of nodes that it
    # hands a callable the coordinates of
    grid = _GRIDS[grid_name]
    op = _OPS["p=2.5"]
    u_callable = solve_dirichlet(DirichletProblem(op_tag=op, f=_wavy_f, g=_wavy_g, grid=grid))
    stored = DirichletProblem(
        op_tag=op, f=sample(_wavy_f, grid), g=sample(_wavy_g, grid), grid=grid
    )
    assert np.array_equal(solve_dirichlet(stored).data, u_callable.data)


# ---------------------------------------------------------------------------
# Raw lattice differences against references that divide at each stencil.
#
# On a power-of-two h the stencil kernels return raw differences, and
# membership, the residual and the march fold the units into multiplies
# they already make.  Their results must keep the bits of the references
# below, which divide at every stencil, on every grid of _GRIDS (h = 0.1
# runs the dividing kernels).


def _saddle_g(mesh, t):
    """_wavy_g plus an indefinite quadratic: many Hessians are uncertified."""
    return _wavy_g(mesh, t) + mesh[0] ** 2 - 2.0 * mesh[-1] ** 2 + 3.0 * mesh[0] * mesh[-1]


def _bits(*values):
    return [float(v).hex() for v in values]


def _reference_membership(u, ell, f_bound):
    """class_membership's slacks and worst node, from _reference_operator."""
    grid = u.grid
    inner = tuple(slice(1, -1) for _ in range(grid.n_dim))
    worst = {True: np.inf, False: np.inf}
    worst_key, worst_node = np.inf, (1, (1,) * grid.n_dim)
    for m in range(1, grid.n_time_levels):
        sl = u.data[m]
        dt = (sl[inner] - u.data[m - 1][inner]) / grid.tau
        m_plus = _reference_operator(PucciPlusOp(ell), sl, grid.h)
        m_minus = _reference_operator(PucciMinusOp(ell), sl, grid.h)
        for is_sub, slack in ((True, dt - m_minus + f_bound), (False, f_bound - (dt - m_plus))):
            k = int(np.argmin(slack))
            val = float(slack.flat[k])
            worst[is_sub] = min(worst[is_sub], val)
            if val < worst_key:
                worst_key = val
                worst_node = (m, tuple(int(i) + 1 for i in np.unravel_index(k, slack.shape)))
    return worst[True], worst[False], worst_node


def _reference_stencils(sl, h):
    """Second differences, cross differences and gradient, each divided."""
    n = sl.ndim

    def at(moves):
        shift = [moves.get(k, 0) for k in range(n)]
        return sl[tuple(slice(1 + s, d - 1 + s) for s, d in zip(shift, sl.shape))]

    diag = [(at({i: 1}) - 2.0 * at({}) + at({i: -1})) / (h * h) for i in range(n)]
    cross = {
        (i, j): (at({i: 1, j: 1}) - at({i: 1, j: -1}) - at({i: -1, j: 1}) + at({i: -1, j: -1}))
        / (4.0 * (h * h))
        for i in range(n)
        for j in range(i + 1, n)
    }
    grad = [(at({i: 1}) - at({i: -1})) / (2.0 * h) for i in range(n)]
    return diag, cross, grad


def _reference_envelope_residual(u, p, f):
    """pde_residual(u, exact p-Laplacian, f, zero_gradient='envelope')."""
    grid = u.grid
    inner = tuple(slice(1, -1) for _ in range(grid.n_dim))
    out = np.zeros_like(u.data)
    zero_rows = 0
    for m in range(1, grid.n_time_levels):
        diag, cross, grad = _reference_stencils(u.data[m], grid.h)
        trace = sum(diag[1:], diag[0])
        norm2 = sum((g * g for g in grad[1:]), grad[0] * grad[0])
        quad = grad[0] * grad[0] * diag[0]
        for i in range(1, grid.n_dim):
            quad = quad + grad[i] * grad[i] * diag[i]
        for (i, j), val in cross.items():
            quad = quad + 2.0 * (grad[i] * grad[j] * val)
        zero = norm2 == 0.0
        low = trace + (p - 2.0) * (quad / np.where(zero, 1.0, norm2))
        high = low.copy()
        if zero.any():
            extremes = jacobi_eigh_batch(_hessian_stack(diag, cross)[zero])[:, [0, -1]]
            ends = trace[zero][:, None] + (p - 2.0) * extremes
            low[zero], high[zero] = ends.min(axis=1), ends.max(axis=1)
            zero_rows += int(zero.sum())
        res = (u.data[m][inner] - u.data[m - 1][inner]) / grid.tau - f.data[m][inner]
        out[m][inner] = np.maximum(res - high, 0.0) + np.minimum(res - low, 0.0)
    return out, zero_rows


def _plant_zero_gradients(u):
    """u with an exactly vanishing centered gradient at interior nodes three steps apart."""
    data = u.data.copy()
    starts = [range(2, s - 2, 3) for s in u.grid.spatial_shape]
    for node in itertools.product(*starts):
        for i in range(u.grid.n_dim):
            up, down = list(node), list(node)
            up[i] += 1
            down[i] -= 1
            data[(slice(None), *up)] = data[(slice(None), *down)]
    return GridFunction(grid=u.grid, data=data)


@pytest.mark.parametrize("grid_name", sorted(_GRIDS))
def test_membership_equals_the_dividing_reference_bitwise(grid_name, monkeypatch):
    grid = _GRIDS[grid_name]
    u = sample(_saddle_g, grid)
    sent = _count_eigen_rows(monkeypatch)
    report = class_membership(u, _ELL, f_bound=0.5)
    sub, sup, node = _reference_membership(u, _ELL, 0.5)
    assert _bits(report.worst_sub_slack, report.worst_super_slack) == _bits(sub, sup)
    assert report.worst_node == node
    # the saddle sends uncertified rows through the gather path
    assert (sum(sent) > 0) == (grid.n_dim > 1)


def test_membership_ties_go_to_the_earlier_level_before_the_lower_inequality():
    # a bump of 2^-7 at node 3 from level 1 on and a dip of 2^-7 at
    # node 6 on level 2: in the box (1, 1) each slack is -0.375 once,
    # the super-slack on level 1 and the sub-slack on level 2
    grid = Grid(n_dim=1, h=0.25, tau=1.0 / 16, time_extent=0.125)
    data = np.zeros((3, 9))
    data[1:, 3] = 2.0**-7
    data[2, 6] = -(2.0**-7)
    u = GridFunction(grid=grid, data=data)
    ell = EllipticityPair(1.0, 1.0)
    report = class_membership(u, ell, f_bound=0.0)
    assert (report.worst_sub_slack, report.worst_super_slack) == (-0.375, -0.375)
    assert report.worst_node == (1, (3,))
    assert _reference_membership(u, ell, 0.0) == (-0.375, -0.375, (1, (3,)))


@pytest.mark.parametrize("grid_name", sorted(_GRIDS))
@pytest.mark.parametrize("op_name", sorted(_OPS) + ["p=2.5, eps=0"])
def test_residual_equals_the_dividing_reference_bitwise(op_name, grid_name):
    grid = _GRIDS[grid_name]
    op = _OPS.get(op_name, PLaplaceOp(PLaplaceParams(p=2.5, epsilon=0.0)))
    u, f = sample(_saddle_g, grid), sample(_wavy_f, grid)
    inner = tuple(slice(1, -1) for _ in range(grid.n_dim))
    want = np.zeros_like(u.data)
    for m in range(1, grid.n_time_levels):
        dt = (u.data[m][inner] - u.data[m - 1][inner]) / grid.tau
        want[m][inner] = dt - _reference_operator(op, u.data[m], grid.h) - f.data[m][inner]
    got = pde_residual(u, op, f)
    assert np.array_equal(got.data.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("grid_name", sorted(_GRIDS))
@pytest.mark.parametrize("p", [1.5, 2.5])
def test_envelope_residual_equals_the_dividing_reference_bitwise(p, grid_name, monkeypatch):
    grid = _GRIDS[grid_name]
    u, f = _plant_zero_gradients(sample(_saddle_g, grid)), sample(_wavy_f, grid)
    op = PLaplaceOp(PLaplaceParams(p=p, epsilon=0.0))
    sent = _count_eigen_rows(monkeypatch)
    got = pde_residual(u, op, f, zero_gradient="envelope")
    want, zero_rows = _reference_envelope_residual(u, p, f)
    assert np.array_equal(got.data.view(np.int64), want.view(np.int64))
    # every planted node is an envelope row, eigen-solved and nothing else
    assert zero_rows > 0 and sum(sent) == zero_rows


@pytest.mark.parametrize("scale", [1e-100, 1e100])
@pytest.mark.parametrize("grid_name", sorted(_GRIDS))
@pytest.mark.parametrize("op_name", sorted(_OPS))
def test_march_and_membership_keep_their_bits_far_from_unit_scale(op_name, grid_name, scale):
    # raw products leave the normal range at other magnitudes than the
    # divided ones (gradient squares underflow earlier, quotients
    # overflow later); at 1e+-100 both stay inside it
    grid = _GRIDS[grid_name]
    g = lambda mesh, t: scale * _wavy_g(mesh, t)
    f = lambda mesh, t: scale * _wavy_f(mesh, t)
    prob = DirichletProblem(op_tag=_OPS[op_name], f=f, g=g, grid=grid)
    u = solve_dirichlet(prob)
    assert np.array_equal(u.data.view(np.int64), _reference_march(prob).view(np.int64))
    report = class_membership(u, _ELL, f_bound=scale)
    sub, sup, node = _reference_membership(u, _ELL, scale)
    assert _bits(report.worst_sub_slack, report.worst_super_slack) == _bits(sub, sup)
    assert report.worst_node == node
