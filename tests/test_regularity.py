"""Affine-fit decay machinery: fits, scales, reflections, rescaling."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from puccilab.errors import (
    AlignmentError,
    DegenerateFitError,
    FaceDataError,
    InputError,
)
from puccilab.experiments.report import render_csv
from puccilab.grid import Grid, GridFunction, cylinder_nodes, sample
from puccilab.operators import HeatOp, pde_residual
from puccilab.regularity import (
    best_linear_fit,
    boundary_decay_sequence,
    coefficient_cauchy_check,
    decay_report_payload,
    decay_report_rows,
    decay_sequence,
    global_report,
    odd_reflection,
    pointwise_c1a_norm,
    rescale,
)

np.random.seed(42)


def flat_grid(h=0.25, tau=1.0 / 16, T=0.25, n_dim=2, **kw):
    return Grid(n_dim=n_dim, h=h, tau=tau, spatial_extent=1.0, time_extent=T, **kw)


def test_fit_matches_full_least_squares():
    """The per-column mean reduction must equal the stacked system.

    The oracle builds the complete (node, time) design matrix and
    solves it directly; the module exploits the repeated design.
    """
    grid = flat_grid()
    rng = np.random.default_rng(7)
    u = GridFunction(
        grid=grid, data=rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape)
    )
    cyl = cylinder_nodes(grid, (np.zeros(2), 0.0), 0.5)
    fit = best_linear_fit(u, cyl)

    offsets = cyl.spatial_offsets()
    values = cyl.values(u)
    one_level = np.hstack([np.ones((offsets.shape[0], 1)), offsets])
    design = np.tile(one_level, (values.shape[0], 1))
    coef, _, _, _ = np.linalg.lstsq(design, values.ravel(), rcond=None)
    assert fit.a == pytest.approx(coef[0], abs=1e-10)
    assert fit.b == pytest.approx(coef[1:], abs=1e-10)
    resid = np.abs(values.ravel() - design @ coef).max()
    assert fit.sup_error == pytest.approx(resid, abs=1e-12)


def test_fit_recovers_affine_data():
    grid = flat_grid()
    u = sample(lambda mesh, t: 3.0 + 2.0 * mesh[0] - mesh[1] + 0.0 * t, grid)
    fit = best_linear_fit(u, cylinder_nodes(grid, (np.zeros(2), 0.0), 0.5))
    assert fit.a == pytest.approx(3.0, abs=1e-12)
    assert fit.b == pytest.approx([2.0, -1.0], abs=1e-12)
    assert fit.sup_error <= 1e-12
    # evaluate() works in absolute coordinates
    assert fit.evaluate([0.25, 0.25]) == pytest.approx(3.25, abs=1e-12)


def test_fit_shifts_exactly_under_affine_change():
    grid = flat_grid()
    rng = np.random.default_rng(19)
    base = rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape)
    u = GridFunction(grid=grid, data=base)
    mesh = grid.coordinate_mesh()
    affine = 0.7 - 1.3 * mesh[0] + 0.4 * mesh[1]
    v = GridFunction(grid=grid, data=base + affine[None, ...])
    cyl = cylinder_nodes(grid, (np.zeros(2), 0.0), 0.5)
    fu = best_linear_fit(u, cyl)
    fv = best_linear_fit(v, cyl)
    assert fv.a == pytest.approx(fu.a + 0.7, abs=1e-10)
    assert fv.b == pytest.approx(fu.b + np.array([-1.3, 0.4]), abs=1e-10)
    assert fv.sup_error == pytest.approx(fu.sup_error, abs=1e-11)


def test_fit_rejects_foreign_cylinder():
    grid = flat_grid()
    other = flat_grid(h=0.125)
    u = sample(lambda mesh, t: mesh[0], grid)
    cyl = cylinder_nodes(other, (np.zeros(2), 0.0), 0.5)
    with pytest.raises(InputError, match="different grid"):
        best_linear_fit(u, cyl)


def test_degenerate_fits_are_refused():
    # one off-face column in 1D: every design row repeats, rank 1 < 2
    grid = Grid(
        n_dim=1, h=0.25, tau=1.0 / 32, spatial_extent=1.0, time_extent=0.25,
        half_space=True,
    )
    u = sample(lambda mesh, t: mesh[0] + 0.0 * t, grid)
    cyl = cylinder_nodes(grid, (np.zeros(1), 0.0), 0.5)
    with pytest.raises(DegenerateFitError):
        best_linear_fit(u, cyl)
    # same column with a single time level: too few nodes outright
    shallow = Grid(
        n_dim=1, h=0.25, tau=0.25, spatial_extent=1.0, time_extent=0.25,
        half_space=True,
    )
    v = sample(lambda mesh, t: mesh[0] + 0.0 * t, shallow)
    lone = cylinder_nodes(shallow, (np.zeros(1), 0.0), 0.5)
    with pytest.raises(DegenerateFitError, match="nodes"):
        best_linear_fit(v, lone)


def test_decay_of_caloric_quadratic():
    grid = flat_grid(h=1.0 / 32, tau=2.0**-10)
    u = sample(lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t, grid)
    rep = decay_sequence(u, (np.zeros(2), 0.0), eta=0.5, K=4)
    assert len(rep.entries) == 5
    assert [e.radius for e in rep.entries] == [0.5**k for k in range(5)]
    # Q_1 wants a full unit of history, more than this grid holds
    assert rep.entries[0].clipped
    assert not any(e.clipped for e in rep.entries[1:])
    # exponents across consecutive unclipped scales sit near 2
    for e in rep.entries[2:]:
        assert e.step_exponent == pytest.approx(2.0, abs=0.4)
    assert 0.9 <= rep.alpha_est <= 1.0
    assert not any(e.resolved for e in rep.entries)


def test_decay_exponent_tracks_holder_data():
    # |x|^(3/2) has exactly a C^(1,1/2) profile at the origin; keep the
    # finest scale at 16 h so lattice resolution does not bend the slope
    grid = Grid(n_dim=1, h=1.0 / 128, tau=2.0**-14, spatial_extent=1.0, time_extent=1.0)
    u = sample(lambda mesh, t: np.abs(mesh[0]) ** 1.5 + 0.0 * t, grid)
    rep = decay_sequence(u, (np.zeros(1), 0.0), eta=0.5, K=3)
    assert rep.alpha_est == pytest.approx(0.5, abs=0.1)


def test_affine_data_reports_resolved_scales():
    grid = flat_grid(h=1.0 / 16, tau=2.0**-8)
    u = sample(lambda mesh, t: 1.0 + mesh[0] - 2.0 * mesh[1] + 0.0 * t, grid)
    rep = decay_sequence(u, (np.zeros(2), 0.0), eta=0.5, K=2)
    assert all(e.resolved for e in rep.entries)
    assert rep.alpha_est == 1.0  # convention when nothing is left to regress


def test_clipped_scales_stay_out_of_the_regression():
    grid = flat_grid(h=1.0 / 16, tau=2.0**-8)
    u = sample(
        lambda mesh, t: (mesh[0] - 0.5) ** 2 + mesh[1] ** 2 + 4.0 * t + 0.5 * mesh[0] ** 3,
        grid,
    )
    center = (np.array([0.5, 0.0]), 0.0)
    rep = decay_sequence(u, center, eta=0.5, K=3)
    assert rep.entries[0].clipped  # Q_1(0.5, .) pokes out of the box
    assert not rep.entries[1].clipped

    usable = [e for e in rep.entries if not (e.clipped or e.resolved)]
    xs = np.array([e.k * math.log(0.5) for e in usable])
    ys = np.array([math.log(e.sup_error) for e in usable])
    slope = ((xs - xs.mean()) * (ys - ys.mean())).sum() / ((xs - xs.mean()) ** 2).sum()
    assert rep.alpha_est == pytest.approx(min(1.0, max(slope - 1.0, 1e-6)), abs=1e-12)


def test_decay_validates_inputs():
    grid = flat_grid()
    u = sample(lambda mesh, t: mesh[0] ** 2 + 0.0 * t, grid)
    with pytest.raises(InputError):
        decay_sequence(u, (np.zeros(2), 0.0), eta=1.5)
    with pytest.raises(InputError):
        decay_sequence(u, (np.zeros(2), 0.0), eta=0.5, K=-1)


def test_cauchy_check_threshold_is_sharp():
    grid = flat_grid(h=1.0 / 32, tau=2.0**-10)
    u = sample(lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t, grid)
    rep = decay_sequence(u, (np.zeros(2), 0.0), eta=0.5, K=4)
    probe = coefficient_cauchy_check(rep, c1=1.0, alpha=rep.alpha_est)
    c_star = probe.smallest_passing_c1
    assert c_star > 0.0
    assert coefficient_cauchy_check(rep, c1=c_star * 1.001, alpha=rep.alpha_est).passed
    tight = coefficient_cauchy_check(rep, c1=c_star * 0.5, alpha=rep.alpha_est)
    assert not tight.passed
    assert len(tight.margins) == len(rep.entries) - 1
    with pytest.raises(InputError):
        coefficient_cauchy_check(rep, c1=0.0, alpha=rep.alpha_est)


@pytest.mark.parametrize("mode", ["interior", "boundary"])
def test_cauchy_check_reads_each_scales_own_k(mode):
    # T = 1/16 clips scales 0 and 1 in time, so the lean report starts
    # at k = 2; its bounds must be those of k = 3.., not of 1..
    grid = Grid(n_dim=2, h=1.0 / 32, tau=2.0**-10, time_extent=1.0 / 16, half_space=True)
    u = sample(lambda mesh, t: mesh[1] ** 3 + 6.0 * mesh[1] * t + mesh[0] ** 2 * mesh[1], grid)
    if mode == "interior":
        center = (np.array([0.0, 0.5]), 0.0)
        full, lean = (decay_sequence(u, center, eta=0.5, K=4, fit_clipped=c) for c in (True, False))
    else:
        full, lean = (boundary_decay_sequence(u, eta=0.5, K=4, fit_clipped=c) for c in (True, False))
    assert [e.k for e in lean.entries] == [2, 3, 4]
    whole = coefficient_cauchy_check(full, c1=1.0, alpha=0.5)
    part = coefficient_cauchy_check(lean, c1=1.0, alpha=0.5)
    assert part.margins == whole.margins[2:]
    assert part.mode == mode
    gap = replace(lean, entries=(lean.entries[0], lean.entries[2]))
    with pytest.raises(InputError, match="consecutive"):
        coefficient_cauchy_check(gap, c1=1.0, alpha=0.5)


def half_space_cubic(h=1.0 / 32, tau=2.0**-10, T=0.25):
    grid = Grid(
        n_dim=2, h=h, tau=tau, spatial_extent=1.0, time_extent=T, half_space=True
    )
    u = sample(lambda mesh, t: mesh[1] ** 3 + 6.0 * mesh[1] * t, grid)
    return grid, u


def test_boundary_decay_on_odd_cubic():
    grid, u = half_space_cubic()
    rep = boundary_decay_sequence(u, eta=0.5)
    assert rep.mode == "boundary"
    for e in rep.entries:
        if not e.clipped:
            # |x_n^3| <= r^3 and |6 x_n t| <= 6 r^3 on Q_r, fit only helps
            assert e.sup_error <= 7.0 * e.radius**3 * 1.05
    assert rep.alpha_est == 1.0  # cubic decay saturates the exponent cap
    check = coefficient_cauchy_check(rep, c1=1.0, alpha=0.9)
    assert check.mode == "boundary"
    assert check.passed


def test_boundary_decay_guards():
    grid, u = half_space_cubic(h=1.0 / 8, tau=2.0**-6)
    with pytest.raises(InputError, match="face"):
        boundary_decay_sequence(u, center=(np.array([0.0, 0.25]), 0.0))
    bad = sample(lambda mesh, t: mesh[1] ** 2 + 1.0 + 0.0 * t, grid)
    with pytest.raises(FaceDataError, match="affine part"):
        boundary_decay_sequence(bad)
    full = flat_grid(h=1.0 / 8, tau=2.0**-6)
    w = sample(lambda mesh, t: mesh[1] ** 3 + 0.0 * t, full)
    with pytest.raises(InputError, match="half-space"):
        boundary_decay_sequence(w)


def test_odd_reflection_is_exactly_odd():
    grid, u = half_space_cubic(h=1.0 / 8, tau=2.0**-6)
    full = odd_reflection(u)
    assert not full.grid.half_space
    n_half = grid.steps_per_half_width
    # face pinned to exact zeros, positive side copied bit for bit
    assert np.all(full.data[..., n_half] == 0.0)
    assert np.array_equal(full.data[..., n_half:], u.data)
    assert np.array_equal(full.data, -full.data[..., ::-1])
    # x_n^3 + 6 x_n t is odd, so reflection equals direct sampling
    direct = sample(lambda mesh, t: mesh[1] ** 3 + 6.0 * mesh[1] * t, full.grid)
    assert np.array_equal(full.data, direct.data)


def test_odd_reflection_guards():
    grid, _ = half_space_cubic(h=1.0 / 8, tau=2.0**-6)
    bad = sample(lambda mesh, t: mesh[1] + 1.0 + 0.0 * t, grid)
    with pytest.raises(FaceDataError):
        odd_reflection(bad)
    full_grid = flat_grid(h=1.0 / 8, tau=2.0**-6)
    w = sample(lambda mesh, t: mesh[1] + 0.0 * t, full_grid)
    with pytest.raises(InputError):
        odd_reflection(w)


def caloric_tall():
    grid = Grid(n_dim=2, h=1.0 / 32, tau=2.0**-10, spatial_extent=1.0, time_extent=1.0)
    u = sample(lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t, grid)
    return grid, u


def test_rescale_copies_nodes_exactly():
    grid, u = caloric_tall()
    r, alpha = 0.5, 0.5
    v = rescale(u, None, r, alpha)
    assert v.grid.h == pytest.approx(grid.h / r)
    assert v.grid.tau == pytest.approx(grid.tau / r**2)
    # independent index reconstruction by coordinate matching
    src_x = grid.axis_coords(0)
    ix = [np.array([int(np.argmin(np.abs(src_x - r * y))) for y in v.grid.axis_coords(i)])
          for i in range(2)]
    src_t = grid.time_values
    it = np.array([int(np.argmin(np.abs(src_t - r * r * s))) for s in v.grid.time_values])
    expected = u.data[np.ix_(it, ix[0], ix[1])] / r ** (1.0 + alpha)
    assert np.array_equal(v.data, expected)


def test_rescale_alignment_and_range_guards():
    grid, u = caloric_tall()
    with pytest.raises(AlignmentError, match="dyadic radii"):
        rescale(u, None, 0.3, 0.5)
    with pytest.raises(AlignmentError):
        rescale(u, None, 2.0, 0.5)
    with pytest.raises(InputError):
        rescale(u, None, 0.5, 0.0)
    with pytest.raises(InputError):
        rescale(u, None, 0.5, 1.5)
    with pytest.raises(InputError):
        rescale(u, None, -0.5, 0.5)


def test_rescale_shifts_decay_sequence_by_one():
    """E_k of the zoomed field equals E_{k+1} of the source, renormalized.

    With r = eta the zoom maps reference cylinders onto the source
    cylinders node for node, so the fits correspond exactly.
    """
    grid, u = caloric_tall()
    r = 0.5
    alpha = 1.0
    fit0 = best_linear_fit(u, cylinder_nodes(grid, (np.zeros(2), 0.0), r))
    v = rescale(u, fit0, r, alpha)
    rep_u = decay_sequence(u, (np.zeros(2), 0.0), eta=0.5, K=3)
    rep_v = decay_sequence(v, (np.zeros(2), 0.0), eta=0.5, K=2)
    for k in range(3):
        lifted = rep_v.sup_errors[k] * r ** (1.0 + alpha)
        assert lifted == pytest.approx(rep_u.sup_errors[k + 1], rel=1e-10)


def test_rescale_scales_residuals_by_the_gap_power():
    # v_s - lap v = r^(1-alpha) (u_t - lap u) node for node
    grid = Grid(n_dim=2, h=1.0 / 16, tau=2.0**-6, spatial_extent=1.0, time_extent=0.25)
    u = sample(lambda mesh, t: (mesh[0] ** 2 + mesh[1] ** 2) ** 2 + 0.0 * t, grid)
    r, alpha = 0.5, 0.5
    v = rescale(u, None, r, alpha)
    zero_u = sample(lambda mesh, t: 0.0, grid)
    zero_v = sample(lambda mesh, t: 0.0, v.grid)
    res_u = pde_residual(u, HeatOp(lam=1.0), zero_u)
    res_v = pde_residual(v, HeatOp(lam=1.0), zero_v)
    # v's node (m, j) sits at u's node (m, 8 + j) on these two lattices
    inner = (slice(1, None), slice(1, -1), slice(1, -1))
    image = (slice(1, None), slice(9, 24), slice(9, 24))
    expected = r ** (1.0 - alpha) * res_u.data[image]
    assert res_v.data[inner] == pytest.approx(expected, abs=1e-9)


def test_pointwise_norm_on_affine_and_quadratic():
    grid = flat_grid(h=1.0 / 32, tau=2.0**-10)
    flat = sample(lambda mesh, t: 1.0 + mesh[0] + 0.0 * t, grid)
    assert pointwise_c1a_norm(flat, (np.zeros(2), 0.0), 1.0) <= 1e-10
    u = sample(lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t, grid)
    semi = pointwise_c1a_norm(u, (np.zeros(2), 0.0), 1.0)
    assert 0.2 <= semi <= 5.0


def test_pointwise_norm_is_zero_when_no_node_is_past_the_finest_radius():
    # near the edge every scale but the finest, r = 2h, is clipped, so the
    # seminorm runs over Q_{2h}'s three columns of one level: all lie
    # closer to x0 than 2h, and the ratio has no node to read
    grid = Grid(n_dim=1, h=1.0 / 8, tau=1.0 / 8)
    u = sample(lambda mesh, t: mesh[0] ** 2 + t, grid)
    rep = decay_sequence(u, (np.array([0.75]), 0.0), eta=0.5)
    assert [e.clipped for e in rep.entries] == [True, True, False]
    assert rep.entries[-1].fit.sup_error > 0.0
    assert pointwise_c1a_norm(u, (np.array([0.75]), 0.0), 0.5) == 0.0


def test_global_report_aggregates_point_rows():
    grid, u = half_space_cubic()
    rep = global_report(
        u,
        alpha=0.9,
        interior_points=[(np.array([0.0, 0.5]), 0.0)],
        boundary_points=[(np.array([0.0, 0.0]), 0.0)],
    )
    kinds = [row.kind for row in rep.rows]
    assert kinds == ["interior", "boundary"]
    assert rep.min_alpha_est == min(row.alpha_est for row in rep.rows)
    assert rep.max_seminorm == max(row.seminorm for row in rep.rows)
    with pytest.raises(InputError):
        global_report(u, alpha=0.9)


def test_decay_report_serialization_is_deterministic():
    grid = flat_grid(h=1.0 / 16, tau=2.0**-8)
    u = sample(lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t, grid)
    rep = decay_sequence(u, (np.zeros(2), 0.0), eta=0.5, K=3)
    header, rows = decay_report_rows(rep)
    csv = render_csv(header, rows)
    assert csv.splitlines()[0] == "k,radius,a,b1,b2,E_k,step_exponent"
    assert csv == render_csv(*decay_report_rows(rep))
    assert csv.endswith("\n") and "\r" not in csv
    # every cell is a plain Python value, so the CSV shows no numpy repr
    assert "np." not in csv
    blob = json.dumps(decay_report_payload(rep), sort_keys=True, indent=2)
    assert blob == json.dumps(decay_report_payload(rep), sort_keys=True, indent=2)
    parsed = json.loads(blob)
    assert parsed["alpha_est"] == rep.alpha_est
    assert len(parsed["entries"]) == 4
    assert [e["k"] for e in parsed["entries"]] == [0, 1, 2, 3]
