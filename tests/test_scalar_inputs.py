"""Every public scalar argument is typed and range-checked by one checker.

A string, None, a boolean, NaN and an int too large for a float must
each raise InputError from the library and ConfigError from a config,
never a raw TypeError, ValueError, OverflowError or IndexError.
"""

import copy
import math

import numpy as np
import pytest

from puccilab import (
    ConfigError,
    EllipticityPair,
    Grid,
    HeatOp,
    InputError,
    PLaplaceParams,
    boundary_decay_sequence,
    class_membership,
    coefficient_cauchy_check,
    cylinder_nodes,
    decay_sequence,
    epsilon_continuation,
    global_report,
    parabolic_boundary_nodes,
    pde_residual,
    pointwise_c1a_norm,
    rescale,
    restrict,
    sample,
    solve_p_laplace_regularized,
)
from puccilab.experiments import (
    make_field,
    parse_config,
    run_boundary_study,
    run_counterexample,
    run_ellipticity_sweep,
    run_p_sweep,
)
from puccilab.experiments import scenarios
from puccilab.experiments.scenarios import sample_interior_points

BAD = ["x", None, True, math.nan, 10**400]
BAD_IDS = ["text", "none", "bool", "nan", "huge-int"]

GRID = Grid(n_dim=2, h=0.25, tau=1.0 / 64, time_extent=0.25)
HALF = Grid(n_dim=2, h=0.25, tau=1.0 / 64, time_extent=0.25, half_space=True)
U = sample(lambda x, t: x[0] * x[0] + x[1] + t, GRID)
# vanishes on the face x_2 = 0
W = sample(lambda x, t: x[1] * (1.0 + x[0]) + 0.0 * t, HALF)
ORIGIN = (np.zeros(2), 0.0)
ELL = EllipticityPair(1.0, 2.0)
REPORT = decay_sequence(U, ORIGIN, K=1)


def zero(x, t):
    return 0.0


# name: (the call with the bad value, whether None is the argument's default,
# which is then not a bad value)
LIBRARY = {
    "Grid.n_dim": (lambda v: Grid(n_dim=v, h=0.25, tau=0.25), False),
    "Grid.h": (lambda v: Grid(n_dim=2, h=v, tau=0.25), False),
    "Grid.tau": (lambda v: Grid(n_dim=2, h=0.25, tau=v), False),
    "Grid.spatial_extent": (lambda v: Grid(n_dim=2, h=0.25, tau=0.25, spatial_extent=v), False),
    "Grid.time_extent": (lambda v: Grid(n_dim=2, h=0.25, tau=0.25, time_extent=v), False),
    "Grid.time_level_of": (lambda v: GRID.time_level_of(v), False),
    "cylinder_nodes.r": (lambda v: cylinder_nodes(GRID, ORIGIN, v), False),
    "cylinder_nodes.t0": (lambda v: cylinder_nodes(GRID, (np.zeros(2), v), 0.5), False),
    "restrict.spatial_extent": (lambda v: restrict(U, v), False),
    "restrict.time_extent": (lambda v: restrict(U, 0.5, v), True),
    "parabolic_boundary_nodes.r": (lambda v: parabolic_boundary_nodes(GRID, v), False),
    "EllipticityPair.lam": (lambda v: EllipticityPair(v, 2.0), False),
    "EllipticityPair.Lam": (lambda v: EllipticityPair(1.0, v), False),
    "PLaplaceParams.p": (lambda v: PLaplaceParams(v), False),
    "PLaplaceParams.epsilon": (lambda v: PLaplaceParams(2.0, v), False),
    "HeatOp.lam": (lambda v: HeatOp(v), False),
    "class_membership.f_bound": (lambda v: class_membership(U, ELL, v), False),
    "class_membership.tol": (lambda v: class_membership(U, ELL, 1.0, v), True),
    "decay_sequence.eta": (lambda v: decay_sequence(U, ORIGIN, eta=v), False),
    "decay_sequence.K": (lambda v: decay_sequence(U, ORIGIN, K=v), True),
    "boundary_decay_sequence.eta": (lambda v: boundary_decay_sequence(W, eta=v), False),
    "boundary_decay_sequence.K": (lambda v: boundary_decay_sequence(W, K=v), True),
    "coefficient_cauchy_check.c1": (lambda v: coefficient_cauchy_check(REPORT, v, 0.5), False),
    "coefficient_cauchy_check.alpha": (
        lambda v: coefficient_cauchy_check(REPORT, 1.0, v), False
    ),
    "rescale.r": (lambda v: rescale(U, None, v, 0.5), False),
    "rescale.alpha": (lambda v: rescale(U, None, 0.5, v), False),
    "pointwise_c1a_norm.alpha": (lambda v: pointwise_c1a_norm(U, ORIGIN, v), False),
    "global_report.alpha": (lambda v: global_report(U, v, interior_points=[ORIGIN]), False),
    "solve_p_laplace_regularized.epsilon": (
        lambda v: solve_p_laplace_regularized(2.0, v, zero, zero, GRID), True
    ),
    "epsilon_continuation.eps_schedule": (
        lambda v: epsilon_continuation(2.0, [v], zero, zero, GRID), False
    ),
    "epsilon_continuation.p": (
        lambda v: epsilon_continuation(v, [0.2, 0.1], zero, zero, GRID), False
    ),
    "run_counterexample.delta": (lambda v: run_counterexample(v), False),
    "run_ellipticity_sweep.delta_list": (
        lambda v: run_ellipticity_sweep([v], GRID, zero, zero), False
    ),
    "run_ellipticity_sweep.eta": (
        lambda v: run_ellipticity_sweep([0.5], GRID, zero, zero, eta=v), False
    ),
    "run_ellipticity_sweep.K": (
        lambda v: run_ellipticity_sweep([0.5], GRID, zero, zero, K=v), True
    ),
    "run_p_sweep.alpha_target": (lambda v: run_p_sweep([2.0], v, GRID, zero, zero), False),
    "run_p_sweep.eta": (lambda v: run_p_sweep([2.0], 0.9, GRID, zero, zero, eta=v), False),
    "run_p_sweep.K": (lambda v: run_p_sweep([2.0], 0.9, GRID, zero, zero, K=v), True),
    "run_boundary_study.affine_value": (
        lambda v: run_boundary_study(HALF, u=W, affine_value=v), False
    ),
    "sample_interior_points.n_points": (lambda v: sample_interior_points(GRID, v, 0), False),
    "sample_interior_points.seed": (lambda v: sample_interior_points(GRID, 3, v), False),
}


@pytest.mark.parametrize(
    "name, bad",
    [
        pytest.param(name, bad, id=f"{name}-{bad_id}")
        for name, (_, none_is_default) in sorted(LIBRARY.items())
        for bad, bad_id in zip(BAD, BAD_IDS)
        if not (bad is None and none_is_default)
    ],
)
def test_a_malformed_library_scalar_is_an_input_error(name, bad):
    with pytest.raises(InputError):
        LIBRARY[name][0](bad)


# tau / h^2 = 1/8 meets the CFL limit of p = 2 and delta = 0.5, so those
# rows would march
SWEEP_GRID = Grid(n_dim=2, h=0.125, tau=2.0**-9, time_extent=0.125)


@pytest.mark.parametrize(
    "sweep,match",
    [
        (lambda: run_p_sweep([2.0, 3.0], 0.9, SWEEP_GRID, zero, zero, eta=2.0), "eta"),
        (lambda: run_p_sweep([2.0, 3.0], 0.9, SWEEP_GRID, zero, zero, K=-1), "K"),
        (lambda: run_ellipticity_sweep([0.5], SWEEP_GRID, zero, zero, eta=2.0), "eta"),
        (lambda: run_ellipticity_sweep([0.5], SWEEP_GRID, zero, zero, K=-1), "K"),
        (lambda: run_p_sweep([2.0, 2.1], 0.9, SWEEP_GRID, zero, zero, epsilon=-0.1), "epsilon"),
        (lambda: run_p_sweep([2.0, 2.1], 0.9, SWEEP_GRID, zero, zero, epsilon=0.0), "epsilon"),
    ],
    ids=["p-eta", "p-K", "ellipticity-eta", "ellipticity-K", "p-epsilon-negative", "p-epsilon-zero"],
)
def test_a_bad_decay_scale_fails_a_sweep_before_any_march(monkeypatch, sweep, match):
    marches = []
    march = scenarios.solve_dirichlet

    def counted(prob):
        marches.append(prob)
        return march(prob)

    monkeypatch.setattr(scenarios, "solve_dirichlet", counted)
    with pytest.raises(InputError, match=match):
        sweep()
    assert marches == []


def test_boundary_study_affine_gradient_defaults_to_zero():
    default = run_boundary_study(HALF, u=W)
    zeros = run_boundary_study(HALF, u=W, affine_gradient=[0.0, 0.0])
    assert default.rows == zeros.rows


_GRID_KEYS = {"n_dim": 2, "h": 0.125, "tau": 2.0**-9, "spatial_extent": 1.0, "time_extent": 0.125}
_FLOWS = {"f": "zero", "g": {"name": "quadratic_caloric", "lam": 1.0}}


def _raw(scenario, grid=None, **sections):
    return {"scenario": scenario, "grid": dict(_GRID_KEYS, **(grid or {})), **sections}


CONFIGS = {
    "solve": _raw("solve", operator={"kind": "heat", "lam": 1.0}, data=_FLOWS),
    "solve_p": _raw(
        "solve", operator={"kind": "p_laplace", "p": 3.0, "epsilon": 0.1}, data=_FLOWS
    ),
    "class_check": _raw(
        "class_check",
        operator={"lam": 1.0, "Lam": 2.0, "f_bound": 1.0, "tolerance": 0.1},
        data={"u": "zero"},
    ),
    "decay": _raw("decay", data={"u": "zero"}, analysis={"eta": 0.5, "K": 2}),
    "boundary": _raw(
        "boundary",
        grid={"half_space": True},
        data={"affine_part": {"value": 0.0, "gradient": [0.0, 0.0]}, "u": "zero"},
        analysis={"c1": 1.0, "alpha": 0.5},
    ),
    "counterexample": _raw("counterexample", operator={"delta": 0.5}),
    "p_sweep": _raw(
        "p_sweep",
        operator={"p_list": [2.0], "epsilon": 0.1},
        data=_FLOWS,
        analysis={"alpha": 0.9, "n_points": 3},
    ),
    "ellipticity_sweep": _raw("ellipticity_sweep", operator={"delta_list": [0.5]}, data=_FLOWS),
    "eps_sweep": _raw("eps_sweep", operator={"p": 2.0, "eps_schedule": [0.1, 0.05]}, data=_FLOWS),
}

# (config, path to the number)
CONFIG_KEYS = [
    ("solve", ("grid", "n_dim")),
    ("solve", ("grid", "h")),
    ("solve", ("grid", "tau")),
    ("solve", ("grid", "spatial_extent")),
    ("solve", ("grid", "time_extent")),
    ("solve", ("seed",)),
    ("solve", ("operator", "lam")),
    ("solve", ("data", "g", "lam")),
    ("solve_p", ("operator", "p")),
    ("solve_p", ("operator", "epsilon")),
    ("class_check", ("operator", "Lam")),
    ("class_check", ("operator", "f_bound")),
    ("class_check", ("operator", "tolerance")),
    ("decay", ("analysis", "eta")),
    ("decay", ("analysis", "K")),
    ("boundary", ("analysis", "c1")),
    ("boundary", ("analysis", "alpha")),
    ("counterexample", ("operator", "delta")),
    ("p_sweep", ("operator", "p_list", 0)),
    ("p_sweep", ("analysis", "n_points")),
    ("ellipticity_sweep", ("operator", "delta_list", 0)),
    ("eps_sweep", ("operator", "eps_schedule", 0)),
]


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize(
    "scenario, path", CONFIG_KEYS, ids=[f"{s}:{'.'.join(map(str, p))}" for s, p in CONFIG_KEYS]
)
def test_a_malformed_config_number_is_a_config_error(scenario, path, bad):
    raw = copy.deepcopy(CONFIGS[scenario])
    parse_config(raw)  # the unmutated config is valid
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    # the message names the key, or for a list entry the list
    key = path[-2] if isinstance(path[-1], int) else path[-1]
    with pytest.raises(ConfigError, match=key):
        parse_config(raw)


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
def test_make_field_checks_its_dimension(bad):
    with pytest.raises(ConfigError, match="n_dim"):
        make_field("quadratic_caloric", bad)


def test_integers_and_ranges():
    assert Grid(n_dim=2.0, h=0.25, tau=0.25).n_dim == 2
    assert type(Grid(n_dim=np.int64(2), h=0.25, tau=0.25).n_dim) is int
    with pytest.raises(InputError, match="n_dim must be an integer"):
        Grid(n_dim=2.5, h=0.25, tau=0.25)
    with pytest.raises(InputError, match="n_dim must be > 0"):
        Grid(n_dim=0, h=0.25, tau=0.25)
    with pytest.raises(InputError, match="K must be an integer"):
        decay_sequence(U, ORIGIN, K=1.5)
    with pytest.raises(InputError, match="alpha must be in \\(0, 1\\]"):
        rescale(U, None, 0.5, 0.0)
    with pytest.raises(InputError, match="finite"):
        HeatOp(10**400)
    # a float equal to an integer is that integer; an exact int is kept exactly
    assert decay_sequence(U, ORIGIN, K=1.0).entries[-1].k == 1
    raw = CONFIGS["solve"] | {"seed": 2**60 + 1}
    assert parse_config(raw).seed == 2**60 + 1


# ---------------------------------------------------------------------------
# Malformed centers and forcing terms.

SHORT = ([0.0], 0.0)  # one coordinate on a 2-D grid

MALFORMED = {
    "decay-short-center": lambda: decay_sequence(U, SHORT),
    "decay-short-center-K": lambda: decay_sequence(U, SHORT, K=1),
    "decay-center-not-a-pair": lambda: decay_sequence(U, 0.0),
    "decay-center-triple": lambda: decay_sequence(U, (0.0, 0.0, 0.0)),
    "boundary-short-center": lambda: boundary_decay_sequence(W, center=SHORT),
    "seminorm-short-center": lambda: pointwise_c1a_norm(U, SHORT, 0.5),
    "global-interior-short-center": lambda: global_report(U, 0.5, interior_points=[SHORT]),
    "global-boundary-short-center": lambda: global_report(W, 0.5, boundary_points=[SHORT]),
    "boundary-study-short-center": lambda: run_boundary_study(HALF, u=W, points=[SHORT]),
    "cylinder-center-not-a-pair": lambda: cylinder_nodes(GRID, None, 0.5),
    "residual-callable-forcing": lambda: pde_residual(U, HeatOp(), zero),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_centers_and_forcing_are_input_errors(name):
    with pytest.raises(InputError):
        MALFORMED[name]()
