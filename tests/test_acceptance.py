"""Shipping gate: the ten guarantees the package is sold on.

Every test funnels through _finish so a full run prints one pass/fail
line per criterion in the terminal summary, whatever else happens.
Tolerances here are contractual; do not loosen them to make a red run
green, fix the library instead.
"""

import gc
import time

import numpy as np

from conftest import record_criterion
from puccilab import (
    DirichletProblem,
    EllipticityPair,
    Grid,
    GridFunction,
    HeatOp,
    PLaplaceParams,
    class_membership,
    decay_sequence,
    boundary_decay_sequence,
    epsilon_continuation,
    odd_reflection,
    p_laplace_coeff,
    pde_residual,
    PucciMinusOp,
    PucciPlusOp,
    rescale,
    sample,
    solve_dirichlet,
    solve_p_laplace_regularized,
)
from puccilab.experiments import parse_config, run_counterexample, run_p_sweep
from puccilab.experiments.scenarios import execute


def _finish(number, label, ok, detail):
    line = record_criterion(number, label, ok, detail)
    print(line)
    assert ok, line


def _zero(mesh, t):
    return 0.0 * mesh[0]


# -- 1: extremal operators against a brute-force maximizer ------------------


def _extremal_by_scan(m, ell, step=1e-3):
    """sup of tr(A M) over the ellipticity box, scanned on a diagonal grid.

    In the eigenbasis of M the trace splits per eigenvalue, so the
    maximization factors: scan each diagonal entry of A over
    [lam, Lam] independently and sum the best terms.  Eigenvalues come
    from LAPACK, not from the library under test.
    """
    mu = np.linalg.eigvalsh(m)
    d = np.arange(ell.lam, ell.Lam + 0.5 * step, step)
    return float(np.sum(np.max(d[None, :] * mu[:, None], axis=1)))


def test_criterion_01_extremal_operators():
    rng = np.random.default_rng(7)
    pairs = [EllipticityPair(1.0, 1.0), EllipticityPair(1.0, 1.2), EllipticityPair(1.0, 2.0)]
    t0 = time.monotonic()
    worst_gap = 0.0
    worst_dual = 0.0
    for _ in range(100):
        a = rng.uniform(-3.0, 3.0, size=(3, 3))
        m = 0.5 * (a + a.T)
        scale = 1.0 + float(np.linalg.norm(m))
        for ell in pairs:
            plus = PucciPlusOp(ell).point_value
            gap = abs(plus(m) - _extremal_by_scan(m, ell))
            worst_gap = max(worst_gap, gap / scale)
            dual = abs(PucciMinusOp(ell).point_value(m) + plus(-m))
            worst_dual = max(worst_dual, dual)
    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-2 and worst_dual <= 1e-12 and elapsed < 10.0
    _finish(
        1,
        "extremal operators vs scan",
        ok,
        f"max scaled gap {worst_gap:.3g}, duality defect {worst_dual:.3g}, {elapsed:.1f}s",
    )


# -- 2: heat march reproduces a caloric quadratic exactly --------------------


def test_criterion_02_heat_march_on_caloric_data():
    tau = 2.0**-13
    grid = Grid(n_dim=2, h=1.0 / 32, tau=tau, time_extent=200 * tau)
    exact = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    u = solve_dirichlet(DirichletProblem(HeatOp(1.0), _zero, exact, grid))
    err = float(np.max(np.abs(u.data - sample(exact, grid).data)))
    ok = err <= 1e-8
    _finish(2, "heat march, 200 steps", ok, f"max nodal error {err:.3g} (tol 1e-08)")


# -- 3: regularized p-flow against its closed-form radial solution ----------


def test_criterion_03_p_flow_accuracy():
    h = 1.0 / 64
    grid = Grid(n_dim=2, h=h, tau=2.0**-15, time_extent=0.25)
    coords = grid.axis_coords(0)
    keep = np.abs(coords) <= 0.5 + 1e-12
    box = np.ix_(keep, keep)
    xs = coords[keep]
    budget = 5.0 * (grid.h**2 + grid.tau + h * h)
    details = []
    ok = True
    for p in (1.8, 2.0, 2.2):
        g = lambda mesh, t, p=p: mesh[0] ** 2 + mesh[1] ** 2 + 2.0 * p * t
        u = solve_p_laplace_regularized(p, None, _zero, g, grid)
        worst = 0.0
        for m in range(1, grid.n_time_levels):
            want = xs[:, None] ** 2 + xs[None, :] ** 2 + 2.0 * p * grid.time_value(m)
            worst = max(worst, float(np.max(np.abs(u.data[m][box] - want))))
        del u
        gc.collect()
        ok = ok and worst <= budget
        details.append(f"p={p}: {worst:.3g}")
    _finish(3, "p-flow sup error on Q_1/2", ok, ", ".join(details) + f" vs budget {budget:.3g}")


# -- 4: the kinked quadratic separating the solution class from C^{1,1} ------


def test_criterion_04_counterexample_study():
    t0 = time.monotonic()
    rep = run_counterexample(0.2)
    elapsed = time.monotonic() - t0
    expected = 1.0 / 1.2
    parts = {
        "wide membership": rep.membership.verdict == "pass",
        "hessian jump": abs(rep.ratio - expected) <= 0.02 * expected,
        "alpha": 0.95 <= rep.decay.alpha_est <= 1.0,
        "strict failure": rep.strict_membership.verdict == "fail"
        and rep.strict_membership.worst_sub_slack <= -0.5,
        "runtime": elapsed < 60.0,
    }
    ok = all(parts.values())
    bad = [k for k, v in parts.items() if not v]
    _finish(
        4,
        "C^{1,1} counterexample",
        ok,
        f"ratio {rep.ratio:.6f}, alpha {rep.decay.alpha_est:.3f}, strict sub slack "
        f"{rep.strict_membership.worst_sub_slack:.3f}, {elapsed:.1f}s"
        + (f"; failed: {bad}" if bad else ""),
    )


# -- 5: affine invariance, bit for bit on lattice-exact data ----------------


def test_criterion_05_affine_invariance():
    grid = Grid(n_dim=2, h=1.0 / 32, tau=2.0**-8, time_extent=0.25, stagger=True)
    u = sample(
        lambda mesh, t: np.where(mesh[1] < 0.0, mesh[1] ** 2, 0.5 * mesh[1] ** 2)
        + 0.0 * mesh[0],
        grid,
    )
    ell = EllipticityPair(1.0, 2.0)
    base = class_membership(u, ell, 2.0)
    base_decay = decay_sequence(u, (np.zeros(2), 0.0), K=3)
    rng = np.random.default_rng(11)
    ok = True
    worst_de = 0.0
    for _ in range(20):
        # dyadic coefficients keep every node value on the lattice, so
        # the affine part cancels exactly inside the stencils
        a0 = float(rng.integers(-64, 65)) / 64.0
        b = rng.integers(-64, 65, size=2) / 64.0
        shift = sample(lambda mesh, t: a0 + b[0] * mesh[0] + b[1] * mesh[1], grid)
        v = GridFunction(grid=grid, data=u.data - shift.data)
        rep = class_membership(v, ell, 2.0)
        same = (
            rep.verdict == base.verdict
            and rep.worst_sub_slack == base.worst_sub_slack
            and rep.worst_super_slack == base.worst_super_slack
            and rep.worst_node == base.worst_node
        )
        dec = decay_sequence(v, (np.zeros(2), 0.0), K=3)
        de = float(np.max(np.abs(dec.sup_errors - base_decay.sup_errors)))
        worst_de = max(worst_de, de)
        ok = ok and same and de <= 1e-12
    _finish(
        5,
        "affine shift invariance",
        ok,
        f"20 dyadic shifts: slacks bit-identical, max |dE| {worst_de:.3g} (tol 1e-12)",
    )


# -- 6: rescaling a solved field onto the reference cylinder ----------------


def test_criterion_06_rescaled_field():
    grid = Grid(n_dim=2, h=1.0 / 32, tau=2.0**-13, time_extent=1.0)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    one = lambda mesh, t: 1.0 + 0.0 * mesh[0]
    u = solve_dirichlet(DirichletProblem(HeatOp(1.0), one, g, grid))
    r, alpha = 0.5, 0.5
    v = rescale(u, None, r, alpha)
    rep = class_membership(v, EllipticityPair(1.0, 1.0), 1.0 * r ** (1.0 - alpha))
    dec_u = decay_sequence(u, (np.zeros(2), 0.0), K=4)
    dec_v = decay_sequence(v, (np.zeros(2), 0.0), K=3)
    scale = r ** (1.0 + alpha)
    rel = [
        abs(ev * scale - eu) / eu
        for ev, eu in zip(dec_v.sup_errors, dec_u.sup_errors[1:])
    ]
    worst = max(rel)
    ok = rep.verdict == "pass" and worst <= 0.05
    _finish(
        6,
        "rescale onto Q_1",
        ok,
        f"membership {rep.verdict} at f_bound {r ** 0.5:.4f}, shifted-decay mismatch "
        f"{worst:.3g} (tol 0.05)",
    )


# -- 7: boundary regularity on the model half-space cubic --------------------


def test_criterion_07_half_space_cubic():
    grid = Grid(n_dim=2, h=1.0 / 32, tau=2.0**-10, time_extent=1.0, half_space=True)
    u = sample(lambda mesh, t: mesh[1] ** 3 + 6.0 * mesh[1] * t, grid)
    face = float(np.max(np.abs(u.data[..., 0])))
    w = odd_reflection(u)
    res = pde_residual(w, HeatOp(1.0), sample(_zero, w.grid))
    stencil_tol = 1e-12 * (1.0 + w.sup_norm)
    res_sup = float(np.max(np.abs(res.data)))
    rep = boundary_decay_sequence(u)
    margins = [e.sup_error - 7.0 * e.radius**3 * 1.05 for e in rep.entries]
    ok = face <= 1e-12 and res_sup <= stencil_tol and max(margins) <= 0.0
    _finish(
        7,
        "half-space cubic",
        ok,
        f"face sup {face:.3g}, reflected residual {res_sup:.3g} (tol {stencil_tol:.3g}), "
        f"decay margin {max(margins):.3g} over {len(margins)} scales",
    )


# -- 8: gradient-regularity sweep across the exponent and epsilon -----------


def test_criterion_08_p_sweep_and_continuation():
    h = 1.0 / 64
    grid = Grid(n_dim=2, h=h, tau=2.0**-15, time_extent=0.25)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    t0 = time.monotonic()
    table = run_p_sweep([1.9, 2.0, 2.1], 0.9, grid, _zero, g, n_points=10, seed=0, K=3)
    rows_ok = table.all_ok and table.all_meet_target
    alpha_floor = min(min(row.alphas) for row in table.rows) if rows_ok else float("nan")
    cont_grid = Grid(n_dim=2, h=h, tau=2.0**-15, time_extent=1.0 / 16)
    cont = epsilon_continuation(2.1, [h, h / 2, h / 4], _zero, g, cont_grid)
    elapsed = time.monotonic() - t0
    d = cont.distances
    cont_ok = len(d) == 2 and d[0] > d[1] > 0.0 and cont.cauchy is not None
    ok = rows_ok and alpha_floor >= 0.9 and cont_ok and elapsed < 300.0
    _finish(
        8,
        "p sweep and continuation",
        ok,
        f"alpha floor {alpha_floor:.3f} over 10 points x 3 exponents, continuation "
        f"distances {d[0]:.3g} > {d[1]:.3g}, {elapsed:.0f}s",
    )


# -- 9: coefficient spectrum of the regularized operator --------------------


def test_criterion_09_coefficient_spectrum():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 4))
        q = rng.uniform(-2.0, 2.0, size=n)
        if i % 20 == 0:
            q = np.zeros(n)
        p = float(rng.uniform(1.05, 3.5))
        eps = float(rng.uniform(1e-6, 0.5))
        a = p_laplace_coeff(q, PLaplaceParams(p, eps))
        w = np.linalg.eigvalsh(a)
        lo, hi = min(p - 1.0, 1.0), max(p - 1.0, 1.0)
        worst = max(worst, lo - float(w[0]), float(w[-1]) - hi)
    ok = worst <= 1e-12
    _finish(
        9,
        "coefficient eigenvalue box",
        ok,
        f"1000 draws, worst excursion past [min(p-1,1), max(p-1,1)] is {worst:.3g}",
    )


# -- 10: byte-identical reports under a fixed config and seed ---------------


def test_criterion_10_report_determinism(tmp_path):
    counter = {
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
    sweep = {
        "scenario": "p_sweep",
        "grid": {
            "n_dim": 2, "h": 0.125, "tau": 2.0**-9,
            "spatial_extent": 1.0, "time_extent": 0.125,
        },
        "operator": {"p_list": [1.9, 2.1]},
        "data": {"f": "zero", "g": "quadratic_caloric"},
        "analysis": {"n_points": 3, "K": 2},
        "seed": 5,
    }
    ok = True
    for name, raw in (("counterexample", counter), ("p_sweep", sweep)):
        cfg = parse_config(raw)
        execute(cfg, str(tmp_path / name / "a"))
        execute(cfg, str(tmp_path / name / "b"))
        for fname in ("report.json", "report.csv"):
            first = (tmp_path / name / "a" / fname).read_bytes()
            second = (tmp_path / name / "b" / fname).read_bytes()
            ok = ok and first == second
    _finish(10, "report determinism", ok, "two scenarios rerun byte-identical (json and csv)")
