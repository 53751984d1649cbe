"""Scenario configs, field builders, study drivers, and the CLI."""

import copy
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from puccilab import errors
from puccilab.errors import ConfigError, InputError
from puccilab.experiments import (
    load_config,
    make_field,
    parse_config,
    run_boundary_study,
    run_counterexample,
    run_ellipticity_sweep,
    run_p_sweep,
)
from puccilab.experiments import cli as cli_module
from puccilab.experiments import config as config_module
from puccilab.experiments import scenarios as scenarios_module
from puccilab.experiments.cli import main as cli_main
from puccilab.experiments.config import SCENARIO_TAGS
from puccilab.experiments.scenarios import (
    OPERATOR_KINDS,
    SCENARIOS,
    execute,
    sample_interior_points,
)
from puccilab.grid import Grid, sample

np.random.seed(42)

GRID_2D = {
    "n_dim": 2, "h": 0.125, "tau": 2.0**-9,
    "spatial_extent": 1.0, "time_extent": 0.125,
}


def solve_raw(**over):
    raw = {
        "scenario": "solve",
        "grid": dict(GRID_2D),
        "operator": {"kind": "heat", "lam": 1.0},
        "data": {"f": "zero", "g": {"name": "quadratic_caloric"}},
        "seed": 0,
    }
    raw.update(over)
    return raw


# ---------------------------------------------------------------------------
# Config validation.


def test_config_round_trip_minimal():
    cfg = parse_config(solve_raw())
    assert cfg.scenario == "solve"
    assert cfg.grid.n_dim == 2
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.update(extra=1), "extra"),
        (lambda r: r["grid"].update(spacing=0.1), "spacing"),
        (lambda r: r["operator"].update(mu=2.0), "mu"),
        (lambda r: r["data"].update(w="zero"), "w"),
        (lambda r: r.update(analysis={"knots": 3}), "knots"),
        (lambda r: r["data"].update(g={"name": "quadratic_caloric", "slope": 1}), "slope"),
        (lambda r: r.update(scenario="warp"), "warp"),
        (lambda r: r["operator"].update(kind="biharmonic"), "biharmonic"),
        (lambda r: r["data"].update(g={"name": "perlin_noise"}), "perlin_noise"),
        (lambda r: r.update(seed=-3), "seed"),
        (lambda r: r.update(seed=True), "integer, got True"),
        (lambda r: r["grid"].update(h="wide"), "grid"),
        (lambda r: r["grid"].update(h=5e-324), "spatial_extent / h"),
        (lambda r: r["grid"].update(half_space="false"), "half_space"),
        (lambda r: r.update(operator={"kind": "p_laplace", "p": 3.0, "epsilon": -0.1}),
         "epsilon"),
        (lambda r: r.update(scenario="p_sweep", operator={"p_list": [2.1], "epsilon": -0.1}),
         "epsilon"),
        (lambda r: r.update(operator={"kind": "p_laplace", "p": 3.0, "epsilon": 0}),
         "operator.epsilon must be > 0"),
        (lambda r: r.update(scenario="eps_sweep", operator={"p": 3.0, "eps_schedule": [0.1, 0]}),
         re.escape("operator.eps_schedule[1] must be > 0")),
    ],
)
def test_config_rejects_bad_input(mutate, fragment):
    raw = solve_raw()
    mutate(raw)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(raw)


def test_config_requires_scenario_fields():
    with pytest.raises(ConfigError, match="p_list"):
        parse_config(solve_raw(scenario="p_sweep", operator={}))
    with pytest.raises(ConfigError, match="delta"):
        parse_config(solve_raw(scenario="counterexample", operator={}))
    bad_delta = solve_raw(scenario="counterexample", operator={"delta": -0.5})
    bad_delta["grid"]["n_dim"] = 1
    bad_delta["grid"]["stagger"] = True
    bad_delta["data"] = {}
    with pytest.raises(ConfigError, match="delta"):
        parse_config(bad_delta)
    with pytest.raises(ConfigError, match="p"):
        parse_config(solve_raw(operator={"kind": "p_laplace", "p": 0.5}))


def test_config_checks_study_points():
    raw = boundary_raw()
    raw["analysis"] = {"points": [[0.0, 0.0]]}  # needs n + 1 entries
    with pytest.raises(ConfigError, match=re.escape("[x_1..x_n, t] lists of length 3")):
        parse_config(raw)


def boundary_raw():
    return {
        "scenario": "boundary",
        "grid": dict(GRID_2D, half_space=True),
        "operator": {"lam": 1.0},
        "data": {
            "affine_part": {"value": 0.0, "gradient": [0.0, 0.0]},
            "g": "zero",
        },
        "seed": 0,
    }


def test_config_boundary_constraints():
    cfg = parse_config(boundary_raw())
    assert cfg.grid.half_space

    flat = boundary_raw()
    flat["grid"]["half_space"] = False
    with pytest.raises(ConfigError, match="half"):
        parse_config(flat)

    both = boundary_raw()
    both["data"]["u"] = "zero"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(both)

    neither = boundary_raw()
    del neither["data"]["g"]
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(neither)


_REPORTS = os.path.join(os.path.dirname(__file__), "data", "reports")


def test_sample_mode_boundary_study_rejects_operator_lam(tmp_path, capsys):
    # lam sets the heat flow that solve mode marches; sample mode marches nothing
    with open(os.path.join(_REPORTS, "boundary_sample", "config.json")) as fh:
        raw = json.load(fh)
    parse_config(raw, base_dir=str(tmp_path))
    raw["operator"] = {"lam": -5.0}
    with pytest.raises(ConfigError, match="sample mode"):
        parse_config(raw, base_dir=str(tmp_path))
    cfg = write_config(tmp_path, "lam.json", raw)
    rc = cli_main(["boundary", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("puccilab: ") and "operator.lam" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"name": "constant", "value": True}, "value"),
        ({"name": "constant", "value": "2.5"}, "value"),
        ({"name": "constant", "value": float("nan")}, "value"),
        ({"name": "quadratic_caloric", "lam": "1"}, "lam"),
        ({"name": "odd_cubic_caloric", "lam": None}, "lam"),
        ({"name": "p_quadratic", "p": [3.0]}, "p"),
        ({"name": "affine", "value": 1.0, "gradient": [0.5, "0.5"]}, "gradient"),
        ({"name": "affine", "value": 1.0, "gradient": "ab"}, "gradient"),
        ({"name": "counterexample", "delta": 0}, "delta"),
    ],
)
def test_field_parameters_go_through_the_typed_converter(tmp_path, capsys, spec, key):
    with pytest.raises(ConfigError, match=key):
        make_field(spec, 2)
    raw = _with(_ELLIPTICITY, data={"g": spec})
    cfg = write_config(tmp_path, "field.json", raw)
    rc = cli_main(["sweep-ellipticity", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("puccilab: ") and key in err
    assert "Traceback" not in err


def test_cli_start_imports_no_thread_pool(tmp_path):
    # concurrent.futures pulls in logging and queue, which no study needs:
    # neither the CLI's start nor a two-p sweep may import it
    cfg = write_config(tmp_path, "ps.json", p_sweep_raw())
    code = (
        "import sys, puccilab.experiments.cli as cli\n"
        "print('concurrent.futures' in sys.modules)\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    argv = ["sweep-p", "--config", cfg, "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=env, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == lines[-1] == "False"
    assert (tmp_path / "out" / "report.json").exists()


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="nope.json"):
        load_config(str(missing))
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(garbled))
    raw = solve_raw(data={"f": "zero", "g": {"file": "ghost.puc"}})
    with pytest.raises(ConfigError, match="ghost.puc"):
        parse_config(raw, base_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# Field builders.


def test_field_formulas():
    grid = Grid(n_dim=2, h=0.25, tau=2.0**-6, spatial_extent=1.0, time_extent=0.25)
    mesh = grid.coordinate_mesh()
    q = sample(make_field({"name": "quadratic_caloric", "lam": 2.0}, 2), grid)
    want = mesh[0] ** 2 + mesh[1] ** 2 + 2.0 * 2.0 * 2 * grid.time_values[-1]
    assert q.data[-1] == pytest.approx(want)
    pq = sample(make_field({"name": "p_quadratic", "p": 3.0}, 2), grid)
    want = mesh[0] ** 2 + mesh[1] ** 2 + 2.0 * (2 + 3.0 - 2.0) * grid.time_values[0]
    assert pq.data[0] == pytest.approx(want)
    aff = sample(make_field({"name": "affine", "value": 1.0, "gradient": [2.0, -1.0]}, 2), grid)
    assert aff.data[0] == pytest.approx(1.0 + 2.0 * mesh[0] - mesh[1])
    cub = sample(make_field({"name": "odd_cubic_caloric", "lam": 0.5}, 2), grid)
    t = grid.time_values[-1]
    assert cub.data[-1] == pytest.approx(mesh[1] ** 3 + 6.0 * 0.5 * mesh[1] * t + 0.0 * mesh[0])
    kink = sample(make_field("abs_kink", 2), grid)
    assert kink.data[0] == pytest.approx(np.abs(mesh[0]) + 0.0 * mesh[1])


def test_counterexample_field_value_jump():
    fld = make_field({"name": "counterexample", "delta": 0.25}, 1)
    xs = np.array([-0.5, 0.5])
    vals = fld((xs,), 0.0)
    assert vals[0] == 0.25
    assert vals[1] == pytest.approx(0.25 / 1.25)


def test_stored_field_round_trip(tmp_path):
    from puccilab.grid import write_gridfn

    grid = Grid(n_dim=1, h=0.25, tau=0.125, spatial_extent=1.0, time_extent=0.25)
    u = sample(lambda mesh, t: mesh[0] ** 2 + t, grid)
    path = tmp_path / "field.puc"
    write_gridfn(u, str(path))
    fld = make_field({"file": "field.puc"}, 1, base_dir=str(tmp_path))
    v = sample(fld, grid)
    assert np.array_equal(v.data, u.data)
    wrong = Grid(n_dim=1, h=0.125, tau=0.125, spatial_extent=1.0, time_extent=0.25)
    with pytest.raises(InputError, match="different grid"):
        sample(fld, wrong)


# ---------------------------------------------------------------------------
# Deterministic point sampling.


def test_sample_points_deterministic_and_snapped():
    grid = Grid(n_dim=2, h=1.0 / 16, tau=2.0**-8, spatial_extent=1.0, time_extent=0.25)
    pts = sample_interior_points(grid, 8, seed=3)
    again = sample_interior_points(grid, 8, seed=3)
    assert len(pts) == 8
    for (x1, t1), (x2, t2) in zip(pts, again):
        assert np.array_equal(x1, x2) and t1 == t2 == 0.0
    keys = {tuple(x) for x, _ in pts}
    assert len(keys) == 8  # all distinct
    axes = [grid.axis_coords(i) for i in range(2)]
    for x, _ in pts:
        assert np.abs(x).max() <= 0.35 + 1e-12
        for d in range(2):
            assert np.min(np.abs(axes[d] - x[d])) == 0.0
    other = sample_interior_points(grid, 8, seed=4)
    assert {tuple(x) for x, _ in other} != keys


# ---------------------------------------------------------------------------
# Study drivers.


def test_counterexample_study_default_grid():
    # the default lattice is fine enough that the strict check's slack
    # (-1 exactly) clears the discretization tolerance and fails loudly
    rep = run_counterexample(0.2, K=3)
    assert rep.membership.verdict == "pass"
    assert rep.membership.worst_sub_slack == 0.0  # exact: dyadic data
    assert rep.strict_membership.verdict == "fail"
    assert rep.strict_membership.worst_sub_slack == -1.0
    assert rep.ratio == pytest.approx(rep.expected_ratio, rel=1e-12)
    assert rep.expected_ratio == pytest.approx(1.0 / 1.2)
    with pytest.raises(InputError):
        run_counterexample(-0.1)
    flat = Grid(n_dim=1, h=1.0 / 32, tau=1.0 / 32, spatial_extent=1.0, time_extent=1.0)
    with pytest.raises(InputError, match="stagger"):
        run_counterexample(0.2, grid=flat)


def sweep_grid():
    return Grid(n_dim=2, h=0.125, tau=2.0**-9, spatial_extent=1.0, time_extent=0.125)


def test_p_sweep_rows_and_threads():
    grid = sweep_grid()
    zero = lambda mesh, t: 0.0
    g = make_field({"name": "quadratic_caloric"}, 2)
    table = run_p_sweep([2.0, 2.25], 0.5, grid, zero, g, n_points=3, seed=1, K=2)
    assert [row.p for row in table.rows] == [2.0, 2.25]
    for row in table.rows:
        assert row.status == "ok"
        assert row.verdict == "pass"
        assert row.meets_target
        assert len(row.alphas) == 3
    assert table.all_ok and table.all_meet_target

    empty = run_p_sweep([], 0.5, grid, zero, g, n_points=3, seed=1, K=2)
    assert empty.rows == ()
    assert empty.all_ok


def test_p_sweep_isolates_per_p_failures():
    grid = sweep_grid()
    zero = lambda mesh, t: 0.0
    g = make_field({"name": "quadratic_caloric"}, 2)
    # p = 6 pushes the diffusion bound past this grid's CFL budget
    table = run_p_sweep([2.0, 6.0], 0.5, grid, zero, g, n_points=2, seed=1, K=2)
    assert table.rows[0].status == "ok"
    assert table.rows[1].status.startswith("failed")
    assert "tau/h" in table.rows[1].status
    assert not table.all_ok


def test_ellipticity_sweep_isolates_per_delta_failures():
    grid = sweep_grid()
    zero = lambda mesh, t: 0.0
    g = make_field({"name": "quadratic_caloric"}, 2)
    # delta = 1 doubles Lam, which breaks this grid's CFL budget
    ok, failed = run_ellipticity_sweep([0.0, 1.0], grid, zero, g, K=2)
    assert ok.status == "ok" and ok.verdict == "pass" and ok.alpha_est is not None
    assert failed.status.startswith("failed: ") and "tau/h" in failed.status
    assert failed.verdict is None and failed.alpha_est is None


def test_sweeps_read_a_stored_forcing_like_a_callable():
    # a GridFunction forcing takes its sup from the stored field, and the
    # rows come out as with the callable it was sampled from
    grid = sweep_grid()
    g = make_field({"name": "quadratic_caloric"}, 2)
    f = lambda mesh, t: 0.5 + 0.0 * mesh[0]
    stored = sample(f, grid)
    assert run_ellipticity_sweep([0.25], grid, stored, g, K=2) == run_ellipticity_sweep(
        [0.25], grid, f, g, K=2
    )
    table = run_p_sweep([2.5], 0.5, grid, stored, g, n_points=2, seed=1, K=2)
    assert table == run_p_sweep([2.5], 0.5, grid, f, g, n_points=2, seed=1, K=2)
    assert table.rows[0].status == "ok"


def test_ellipticity_sweep_rejects_negative_offsets_as_input_errors():
    # a library call, not a config: InputError, not ConfigError
    zero = lambda mesh, t: 0.0
    with pytest.raises(InputError, match="offsets") as info:
        run_ellipticity_sweep([-0.1], sweep_grid(), zero, zero)
    assert not isinstance(info.value, ConfigError)


# ---------------------------------------------------------------------------
# CLI end to end.


def write_config(tmp_path, name, raw):
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2) + "\n")
    return str(path)


def p_sweep_raw():
    return {
        "scenario": "p_sweep",
        "grid": dict(GRID_2D),
        "operator": {"p_list": [1.9, 2.1]},
        "data": {"f": "zero", "g": "quadratic_caloric"},
        "analysis": {"n_points": 2, "K": 2},
        "seed": 0,
    }


def ce_raw():
    return {
        "scenario": "counterexample",
        "grid": {
            "n_dim": 1, "h": 1.0 / 128, "tau": 1.0 / 128,
            "spatial_extent": 1.0, "time_extent": 1.0, "stagger": True,
        },
        "operator": {"delta": 0.2},
        "data": {},
        "analysis": {"K": 3},
        "seed": 0,
    }


def test_cli_counterexample_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, "ce.json", ce_raw())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["counterexample", "--config", cfg, "--out", str(out1)]) == 0
    assert cli_main(["counterexample", "--config", cfg, "--out", str(out2)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out1 / "report.json") in printed
    for name in ("report.json", "report.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2
    doc = json.loads((out1 / "report.json").read_text())
    assert doc["provenance"]["scenario"] == "counterexample"
    assert doc["result"]["membership"]["verdict"] == "pass"
    assert doc["result"]["strict_membership"]["verdict"] == "fail"


def test_cli_verbose_names_the_scenario_and_config_on_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, "solve.json", solve_raw())
    out = tmp_path / "out"
    assert cli_main(["solve", "--config", cfg, "--out", str(out), "--verbose"]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"running solve from {cfg}\n"
    assert "running" not in captured.out
    assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_exit_codes(tmp_path, capsys):
    # missing config file names the path on stderr
    rc = cli_main(["solve", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "gone.json" in capsys.readouterr().err

    # unknown flag is a usage error
    cfg = write_config(tmp_path, "ce.json", ce_raw())
    rc = cli_main(["counterexample", "--config", cfg, "--out", str(tmp_path / "o"), "--fast"])
    assert rc == 1
    assert "usage" in capsys.readouterr().err

    # config tag must match the subcommand
    rc = cli_main(["check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "counterexample" in capsys.readouterr().err

    # a JSON boolean is not a seed
    cfg_seed = write_config(tmp_path, "seed.json", solve_raw(seed=True))
    rc = cli_main(["solve", "--config", cfg_seed, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "seed must be a nonnegative integer, got True" in capsys.readouterr().err

    # CFL-violating grid is a validation failure, reported with the ratio
    bad = solve_raw()
    bad["grid"]["tau"] = 0.125
    cfg_bad = write_config(tmp_path, "cfl.json", bad)
    rc = cli_main(["solve", "--config", cfg_bad, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "tau/h^2" in capsys.readouterr().err

    # a marched blow-up is a numerical failure: exit 2
    boom = solve_raw(
        operator={"kind": "p_laplace", "p": 3.0},
        data={"f": {"name": "constant", "value": 1e308}, "g": "zero"},
    )
    boom["grid"]["tau"] = 2.0**-10
    cfg_boom = write_config(tmp_path, "boom.json", boom)
    rc = cli_main(["solve", "--config", cfg_boom, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_threads_accepts_only_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "ps.json", p_sweep_raw())
    plain, one = tmp_path / "plain", tmp_path / "one"
    assert cli_main(["sweep-p", "--config", cfg, "--out", str(plain)]) == 0
    assert cli_main(["sweep-p", "--config", cfg, "--out", str(one), "--threads", "1"]) == 0
    capsys.readouterr()
    for name in ("report.json", "report.csv"):
        assert (plain / name).read_bytes() == (one / name).read_bytes()
    for value in ("0", "2"):
        out = tmp_path / f"threads{value}"
        rc = cli_main(["sweep-p", "--config", cfg, "--out", str(out), "--threads", value])
        err = capsys.readouterr().err
        assert rc == 1
        assert "usage" in err and "--threads" in err
        assert not out.exists()


def test_cli_runs_as_a_module(tmp_path, capsys):
    cfg = os.path.join(REPORTS, "class_check", "config.json")
    direct, module = tmp_path / "direct", tmp_path / "module"
    assert cli_main(["check", "--config", cfg, "--out", str(direct)]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["check", "--config", cfg, "--out", str(module)]
    out = subprocess.run([sys.executable, "-m", "puccilab.experiments.cli", *argv],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    for name in ("report.json", "report.csv"):
        assert (direct / name).read_bytes() == (module / name).read_bytes()


# The exit code documented for every exported error class: 1 for
# validation problems, 2 for numerical failures.
DOCUMENTED_EXIT_CODES = {
    "ValidationError": 1,
    "InputError": 1,
    "ConfigError": 1,
    "AlignmentError": 1,
    "CFLViolationError": 1,
    "GridFileError": 1,
    "FaceDataError": 1,
    "NumericalError": 2,
    "BlowUpError": 2,
    "DegenerateFitError": 2,
    "DegenerateCylinderError": 2,
    "SingularGradientError": 2,
}


def test_cli_maps_every_error_class_to_its_exit_code(tmp_path, capsys, monkeypatch):
    # Only the package root lacks a code: every class below it has one.
    assert set(errors.__all__) - {"PucciLabError"} == set(DOCUMENTED_EXIT_CODES)
    cfg = write_config(tmp_path, "ce.json", ce_raw())
    for name, code in DOCUMENTED_EXIT_CODES.items():
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ValidationError if code == 1 else errors.NumericalError)

        def fail(*args, **kwargs):
            raise cls(f"raised {name}")

        monkeypatch.setattr(cli_module, "execute", fail)
        rc = cli_main(["counterexample", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == code, name
        assert f"raised {name}" in err
        assert ("numerical failure" in err) == (code == 2)


def test_cli_p_sweep_refuses_a_zero_epsilon_before_any_march(tmp_path, capsys, monkeypatch):
    marches = []
    monkeypatch.setattr(scenarios_module, "solve_dirichlet", lambda prob: marches.append(prob))
    raw = p_sweep_raw()
    raw["operator"]["epsilon"] = 0
    cfg = write_config(tmp_path, "ps.json", raw)
    out = tmp_path / "out"
    assert cli_main(["sweep-p", "--config", cfg, "--out", str(out)]) == 1
    assert "epsilon must be > 0, got 0.0" in capsys.readouterr().err
    assert marches == []
    assert not (out / "report.json").exists()


def test_cli_solve_refuses_a_zero_epsilon_before_any_march(tmp_path, capsys, monkeypatch):
    # epsilon = 0 is the exact p-Laplacian, which the marcher refuses
    marches = []
    monkeypatch.setattr(scenarios_module, "solve_dirichlet", lambda prob: marches.append(prob))
    raw = solve_raw(operator={"kind": "p_laplace", "p": 2.5, "epsilon": 0})
    raw["data"]["g"] = {"name": "affine", "value": 1.0, "gradient": [1.0, 0.5]}
    cfg = write_config(tmp_path, "solve.json", raw)
    out = tmp_path / "out"
    assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 1
    assert "operator.epsilon must be > 0, got 0.0" in capsys.readouterr().err
    assert marches == []
    assert not (out / "report.json").exists()


def test_p_sweep_refuses_a_forcing_that_is_nan_at_the_top_level_before_any_march(monkeypatch):
    marches = []
    monkeypatch.setattr(scenarios_module, "solve_dirichlet", lambda prob: marches.append(prob))
    grid = Grid(**GRID_2D)
    f = lambda x, t: np.nan if t == 0.0 else 1.0
    with pytest.raises(InputError, match="forcing f is not finite at level 64"):
        run_p_sweep([2.1], 0.9, grid, f, lambda x, t: 0.0, n_points=1)
    assert marches == []


@pytest.mark.parametrize(
    "g, message",
    [
        (5, "boundary data g must be a GridFunction or a callable field"),
        (lambda x, t: np.inf + x[0], "boundary data g is not finite at level 0"),
        (lambda x, t: np.ones(3), "must act elementwise"),
    ],
    ids=["not-a-field", "non-finite", "not-elementwise"],
)
@pytest.mark.parametrize("sweep", ["p", "ellipticity"])
def test_sweeps_refuse_bad_boundary_data_before_any_march(sweep, g, message, monkeypatch):
    marches = []
    monkeypatch.setattr(scenarios_module, "solve_dirichlet", lambda prob: marches.append(prob))
    grid = Grid(n_dim=2, h=0.25, tau=2.0**-8, time_extent=0.125)
    zero = lambda x, t: 0.0
    with pytest.raises(InputError, match=message):
        if sweep == "p":
            run_p_sweep([2.1, 2.2], 0.9, grid, f=zero, g=g, n_points=1)
        else:
            run_ellipticity_sweep([0.0, 0.5], grid, zero, g)
    assert marches == []


def test_cli_names_non_finite_boundary_data_as_a_validation_problem(tmp_path, capsys):
    # |x|^2 + 2 lam n t with lam = 1e308 is -inf at t < 0: bad data (exit
    # 1), not a blow-up of the scheme (exit 2)
    raw = solve_raw(data={"f": "zero", "g": {"name": "quadratic_caloric", "lam": 1e308}})
    cfg = write_config(tmp_path, "inf.json", raw)
    out = tmp_path / "out"
    assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "boundary data g is not finite at level 0, spatial index (0, 0)" in err
    assert "numerical failure" not in err
    assert not (out / "report.json").exists()


def test_boundary_study_refuses_a_field_that_is_not_one():
    grid = Grid(**dict(GRID_2D, half_space=True))
    with pytest.raises(InputError, match="callable"):
        run_boundary_study(grid, u=5)


def test_cli_empty_p_sweep_is_a_success(tmp_path, capsys):
    raw = {
        "scenario": "p_sweep",
        "grid": dict(GRID_2D),
        "operator": {"p_list": []},
        "data": {"f": "zero", "g": "quadratic_caloric"},
        "analysis": {"n_points": 2, "K": 2},
        "seed": 0,
    }
    cfg = write_config(tmp_path, "ps.json", raw)
    out = tmp_path / "out"
    assert cli_main(["sweep-p", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    csv_lines = (out / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 1  # header only, still well formed
    assert csv_lines[0]


def test_cli_decay_report_columns(tmp_path, capsys):
    raw = {
        "scenario": "decay",
        "grid": {
            "n_dim": 2, "h": 1.0 / 16, "tau": 2.0**-8,
            "spatial_extent": 1.0, "time_extent": 0.25,
        },
        "data": {"u": "quadratic_caloric"},
        "analysis": {"eta": 0.5, "K": 3},
        "seed": 0,
    }
    cfg = write_config(tmp_path, "dec.json", raw)
    out = tmp_path / "out"
    assert cli_main(["decay", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "k,radius,a,b1,b2,E_k,step_exponent"
    assert len(lines) == 5


def test_cli_reads_a_file_field_once(tmp_path, capsys, monkeypatch):
    from puccilab.experiments import fields
    from puccilab.grid import write_gridfn

    grid_keys = {"n_dim": 2, "h": 1.0 / 16, "tau": 2.0**-8, "spatial_extent": 1.0,
                 "time_extent": 0.25}
    u = sample(make_field("quadratic_caloric", 2), Grid(**grid_keys))
    write_gridfn(u, str(tmp_path / "u.puc"))
    reads = []
    read = fields.read_gridfn
    monkeypatch.setattr(fields, "read_gridfn", lambda path: reads.append(path) or read(path))
    raw = {"scenario": "decay", "grid": grid_keys, "data": {"u": {"file": "u.puc"}},
           "analysis": {"eta": 0.5, "K": 3}}
    cfg = write_config(tmp_path, "dec.json", raw)
    assert cli_main(["decay", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(reads) == 1


def test_cli_solve_then_check_round_trip(tmp_path, capsys):
    solve_cfg = write_config(tmp_path, "solve.json", solve_raw())
    solve_out = tmp_path / "solved"
    assert cli_main(["solve", "--config", solve_cfg, "--out", str(solve_out)]) == 0
    capsys.readouterr()
    solution = solve_out / "solution.puc"
    assert solution.exists()

    check_raw = {
        "scenario": "class_check",
        "grid": dict(GRID_2D),
        "operator": {"lam": 1.0, "Lam": 1.0, "f_bound": 0.0},
        "data": {"u": {"file": str(solution)}},
        "seed": 0,
    }
    check_cfg = write_config(tmp_path, "check.json", check_raw)
    check_out = tmp_path / "checked"
    assert cli_main(["check", "--config", check_cfg, "--out", str(check_out)]) == 0
    capsys.readouterr()
    doc = json.loads((check_out / "report.json").read_text())
    assert doc["result"]["membership"]["verdict"] == "pass"


# Each case directory holds a config.json and the report.json / report.csv
# that execute() wrote for it; every scenario tag is covered, with the
# optional keys both set and left to their defaults.
REPORTS = os.path.join(os.path.dirname(__file__), "data", "reports")


@pytest.mark.parametrize("case", sorted(os.listdir(REPORTS)))
def test_report_bytes_match_the_reference(tmp_path, case):
    ref = os.path.join(REPORTS, case)
    execute(load_config(os.path.join(ref, "config.json")), str(tmp_path))
    for name in ("report.json", "report.csv"):
        with open(os.path.join(ref, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_scenario_table_matches_the_cli_parsers_and_references():
    assert SCENARIO_TAGS == tuple(SCENARIOS)
    parser = cli_module._build_parser()
    subcommands = [scenario.subcommand for scenario in SCENARIOS.values()]
    assert len(set(subcommands)) == len(subcommands)
    for tag, scenario in SCENARIOS.items():
        args = parser.parse_args([scenario.subcommand, "--config", "c.json", "--out", "o"])
        assert args.tag == tag
        assert callable(scenario.executor)
        keys = scenario.operator + scenario.data + scenario.analysis
        assert len(set(keys)) == len(keys)  # no key in two sections
        assert set(scenario.required) <= set(keys)
        assert set(keys) <= set(config_module._PARSERS)
    for kind in OPERATOR_KINDS.values():
        assert set(kind.required) <= set(kind.keys) <= set(config_module._PARSERS)
    # every tag has a reference report pinning its bytes
    referenced = set()
    for case in os.listdir(REPORTS):
        with open(os.path.join(REPORTS, case, "config.json")) as fh:
            referenced.add(json.load(fh)["scenario"])
    assert referenced == set(SCENARIOS)


# ---------------------------------------------------------------------------
# Malformed numbers: typed ConfigErrors, never raw tracebacks.


def _sweep_raw(**operator):
    return {
        "scenario": "p_sweep",
        "grid": dict(GRID_2D),
        "operator": operator or {"p_list": [2.1]},
        "data": {"f": "zero", "g": "quadratic_caloric"},
        "analysis": {"n_points": 2, "K": 2},
        "seed": 0,
    }


def _eps_raw(schedule):
    raw = _sweep_raw(p=3.0, eps_schedule=schedule)
    raw["scenario"] = "eps_sweep"
    del raw["analysis"]
    return raw


def _bad_k_raw():
    raw = _sweep_raw()
    raw["analysis"]["K"] = "x"
    return raw


@pytest.mark.parametrize(
    "subcommand, raw, key",
    [
        ("sweep-p", _sweep_raw(p_list=["abc"]), "p_list"),
        ("eps-continuation", _eps_raw(5), "eps_schedule"),
        ("sweep-p", _bad_k_raw(), "K"),
    ],
)
def test_cli_malformed_numbers_are_validation_errors(tmp_path, capsys, subcommand, raw, key):
    cfg = write_config(tmp_path, "bad.json", raw)
    rc = cli_main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("puccilab: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand, raw", [("sweep-p", p_sweep_raw()), ("eps-continuation", _eps_raw([0.2, 0.1]))]
)
def test_cli_refuses_stored_data_of_another_grid_before_any_march(
    tmp_path, capsys, monkeypatch, subcommand, raw
):
    import puccilab.solver as solver_module
    from puccilab.grid import write_gridfn

    marches = []
    for module in (scenarios_module, solver_module):
        monkeypatch.setattr(module, "solve_dirichlet", lambda prob: marches.append(prob))
    other = Grid(**dict(GRID_2D, h=0.25))
    write_gridfn(sample(lambda x, t: 1.0 + 0.0 * x[0], other), str(tmp_path / "g.puc"))
    raw["data"]["g"] = {"file": "g.puc"}
    cfg = write_config(tmp_path, "cfg.json", raw)
    out = tmp_path / "out"
    assert cli_main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    assert "data.g lives on a different grid" in capsys.readouterr().err
    assert marches == []
    assert not (out / "report.json").exists()


def _with(raw, **sections):
    """A copy of raw with keys added to the named sections."""
    raw = copy.deepcopy(raw)
    for name, keys in sections.items():
        raw.setdefault(name, {}).update(keys)
    return raw


_CHECK = {
    "scenario": "class_check",
    "grid": dict(GRID_2D),
    "operator": {"lam": 1.0, "Lam": 1.0, "f_bound": 0.0},
    "data": {"u": "quadratic_caloric"},
}
_DECAY = {"scenario": "decay", "grid": dict(GRID_2D), "data": {"u": "quadratic_caloric"}}
_ELLIPTICITY = {
    "scenario": "ellipticity_sweep",
    "grid": dict(GRID_2D),
    "operator": {"delta_list": [0.0, 0.5]},
    "data": {"f": "zero", "g": {"name": "constant", "value": 1.0}},
}
_AFFINE = {"value": 0.0, "gradient": [0.0, 0.0]}


# Keys that a scenario, or a solve kind, does not read: each is named in
# the error before any of them is typed or built (ghost.puc is never read).
@pytest.mark.parametrize(
    "subcommand, raw, unread",
    [
        ("solve", solve_raw(operator={"kind": "heat", "p": 0.5, "Lam": -3}), ["Lam", "p"]),
        ("solve", solve_raw(operator={"kind": "pucci_plus", "lam": 1.0, "Lam": 2.0,
                                      "epsilon": 0.1}), ["epsilon"]),
        ("solve", solve_raw(operator={"kind": "pucci_minus", "lam": 1.0, "Lam": 2.0,
                                      "p": 3.0}), ["p"]),
        ("solve", solve_raw(operator={"kind": "p_laplace", "p": 3.0, "lam": 1.0}), ["lam"]),
        ("solve", solve_raw(analysis={"K": 3}), ["K"]),
        ("check", _with(_CHECK, analysis={"center": [0.0, 0.0, 0.0]}), ["center"]),
        ("decay", _with(_DECAY, analysis={"n_points": 3, "alpha": 0.9}), ["alpha", "n_points"]),
        ("boundary", _with(boundary_raw(), data={"f": "zero"}), ["f"]),
        ("counterexample", _with(ce_raw(), data={"f": "zero"}), ["f"]),
        ("sweep-p", _with(_sweep_raw(), analysis={"points": [[0.0, 0.0, 0.0]]}), ["points"]),
        ("sweep-p", _with(_sweep_raw(), analysis={"center": [0.0, 0.0, 0.0], "c1": 1.0}),
         ["c1", "center"]),
        ("sweep-ellipticity", _with(_ELLIPTICITY, analysis={"alpha": 0.9}), ["alpha"]),
        ("eps-continuation",
         _with(_eps_raw([0.1, 0.05]), data={"u": {"file": "ghost.puc"}, "affine_part": _AFFINE}),
         ["affine_part", "u"]),
    ],
)
def test_config_rejects_keys_the_scenario_does_not_read(tmp_path, capsys, subcommand, raw,
                                                          unread):
    fragment = f"unknown key(s) {unread}"
    with pytest.raises(ConfigError, match=re.escape(fragment)):
        parse_config(raw, base_dir=str(tmp_path))
    cfg = write_config(tmp_path, "unread.json", raw)
    rc = cli_main([subcommand, "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("puccilab: ") and fragment in err
    assert "Traceback" not in err


def test_config_number_helper_rejects_non_numbers():
    for value in ("2", None, True, [2.0], {"p": 2}, float("nan"), float("inf"), 10**400):
        with pytest.raises(ConfigError, match="operator.p"):
            parse_config(solve_raw(operator={"kind": "p_laplace", "p": value}))
    with pytest.raises(ConfigError, match="analysis.K"):
        raw = _sweep_raw()
        raw["analysis"]["K"] = 2.5
        parse_config(raw)
    raw = _sweep_raw()
    raw["analysis"]["K"] = 3.0
    assert parse_config(raw).analysis["K"] == 3.0


_BASES = [
    solve_raw(),
    solve_raw(operator={"kind": "pucci_plus", "lam": 1.0, "Lam": 2.0}),
    solve_raw(operator={"kind": "p_laplace", "p": 3.0, "epsilon": 0.1}),
    _sweep_raw(),
    _eps_raw([0.1, 0.05]),
    {
        "scenario": "class_check",
        "grid": dict(GRID_2D),
        "operator": {"lam": 1.0, "Lam": 1.0, "f_bound": 0.0, "tolerance": 1e-3},
        "data": {"u": "quadratic_caloric"},
    },
    {
        "scenario": "decay",
        "grid": dict(GRID_2D),
        "data": {"u": {"name": "affine", "value": 1.0, "gradient": [0.5, 0.5]}},
        "analysis": {"eta": 0.5, "K": 3, "center": [0.0, 0.0, 0.0]},
    },
    dict(boundary_raw(), analysis={"points": [[0.0, 0.0, -0.1]], "alpha": 0.9, "c1": 1.0}),
    ce_raw(),
    {
        "scenario": "ellipticity_sweep",
        "grid": dict(GRID_2D),
        "operator": {"delta_list": [0.0, 0.5]},
        "data": {"f": "zero", "g": {"name": "constant", "value": 1.0}},
    },
]
_KEYS = {
    None: ["scenario", "grid", "operator", "data", "analysis", "seed"],
    "grid": ["n_dim", "h", "tau", "spatial_extent", "time_extent", "half_space", "stagger"],
    "operator": ["kind", "lam", "Lam", "p", "epsilon", "f_bound", "tolerance", "delta",
                 "p_list", "delta_list", "eps_schedule"],
    "data": ["f", "g", "u", "affine_part"],
    "analysis": ["eta", "K", "alpha", "c1", "n_points", "points", "center"],
}
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["zero", "affine", "name", "value", "gradient", "file", "p"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["name", "value", "gradient", "file", "p", "lam"]),
                      inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated_configs(draw):
    raw = copy.deepcopy(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        section = draw(st.sampled_from(sorted(_KEYS, key=str)))
        target = raw if section is None else raw.setdefault(section, {})
        if isinstance(target, dict):
            target[draw(st.sampled_from(_KEYS[section]))] = draw(_json)
    return raw


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_configs())
def test_parse_config_rejects_only_with_config_errors(raw):
    try:
        parse_config(raw, base_dir=os.path.dirname(os.path.abspath(__file__)))
    except ConfigError:
        pass
