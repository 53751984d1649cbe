"""The fit path: fits read off per-column window reductions.

A cylinder whose (levels x columns) block fits in one lattice slice
reduces a view of its own box; a larger one reads the field's memoized
whole-lattice window reductions.  Both run one kernel and must give
the same bits.  The oracles here work on the full block of values,
gathered with the fancy index of the whole-lattice mask.
"""

import copy
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import puccilab.experiments.scenarios as scenarios
import puccilab.grid as grid_module
import puccilab.regularity as regularity
from puccilab.errors import DegenerateCylinderError, InputError
from puccilab.experiments import make_field, run_ellipticity_sweep, run_p_sweep
from puccilab.grid import Grid, GridFunction, cylinder_nodes, restrict, sample
from puccilab.regularity import (
    best_linear_fit,
    boundary_decay_sequence,
    decay_report_rows,
    decay_sequence,
    global_report,
    pointwise_c1a_norm,
)


def random_field(half_space=False, seed=5):
    grid = Grid(
        n_dim=2, h=1.0 / 16, tau=2.0**-8, spatial_extent=1.0, time_extent=0.25,
        half_space=half_space,
    )
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape)
    if half_space:
        data[..., 0] = 0.0
    return GridFunction(grid=grid, data=data)


def gathered(u, cyl):
    return u.data[cyl.time_levels][:, cyl.spatial_mask]


def stacked_oracle(u, cyl, boundary):
    """Least squares on every (level, column) node, and its sup residual."""
    offsets = cyl.spatial_offsets()
    values = gathered(u, cyl)
    n = u.grid.n_dim
    if boundary:
        one_level = offsets[:, n - 1 : n]
    else:
        one_level = np.hstack([np.ones((offsets.shape[0], 1)), offsets])
    design = np.tile(one_level, (values.shape[0], 1))
    coef, _, _, _ = np.linalg.lstsq(design, values.ravel(), rcond=None)
    return coef, np.abs(values.ravel() - design @ coef).max()


# Centers and radii: windows ending at the top level and below it
# (t0 < 0), cylinders inside the box and clipped in space and in time.
INTERIOR_CASES = [
    ((0.0, 0.0), 0.0, 0.5),
    ((0.0, 0.0), -1.0 / 16, 0.25),
    ((0.25, -0.5), -0.125, 0.375),
    ((0.875, 0.875), 0.0, 0.5),
    ((-0.75, 0.5), -1.0 / 16, 1.0),
]


@pytest.mark.parametrize("x0,t0,r", INTERIOR_CASES)
def test_interior_fit_matches_stacked_oracle(x0, t0, r):
    u = random_field()
    cyl = cylinder_nodes(u.grid, (np.array(x0), t0), r)
    fit = best_linear_fit(u, cyl)
    coef, sup = stacked_oracle(u, cyl, boundary=False)
    assert fit.a == pytest.approx(coef[0], abs=1e-12)
    assert fit.b == pytest.approx(coef[1:], abs=1e-12)
    assert fit.sup_error == pytest.approx(sup, rel=1e-12)


@pytest.mark.parametrize("x1,t0", [(0.0, 0.0), (0.25, -1.0 / 16), (0.875, -0.125)])
def test_boundary_fit_matches_stacked_oracle(x1, t0):
    u = random_field(half_space=True)
    rep = boundary_decay_sequence(u, eta=0.5, K=3, center=(np.array([x1, 0.0]), t0))
    assert any(e.clipped for e in rep.entries)
    for e in rep.entries:
        cyl = e.fit.cylinder
        coef, sup = stacked_oracle(u, cyl, boundary=True)
        assert e.fit.a == 0.0
        assert e.fit.b[0] == 0.0
        assert e.fit.b[1] == pytest.approx(coef[0], abs=1e-12)
        assert e.sup_error == pytest.approx(sup, rel=1e-12)


def test_sup_error_is_exact_on_the_reductions():
    """max(colmax - pred, pred - colmin) is max |values - pred| bit for bit."""
    u = random_field(seed=11)
    for x0, t0, r in INTERIOR_CASES:
        cyl = cylinder_nodes(u.grid, (np.array(x0), t0), r)
        fit = best_linear_fit(u, cyl)
        predicted = fit.a + cyl.spatial_offsets() @ fit.b
        assert fit.sup_error == float(np.max(np.abs(gathered(u, cyl) - predicted)))


def test_values_equals_fancy_index_gather():
    u = random_field()
    for x0, t0, r in INTERIOR_CASES:
        cyl = cylinder_nodes(u.grid, (np.array(x0), t0), r)
        lo, hi = cyl.window
        assert np.array_equal(cyl.time_levels, np.arange(lo, hi + 1))
        assert np.array_equal(cyl.values(u), gathered(u, cyl))


def above_the_rule(cyl):
    """Whether column_reductions reads the window memo: a block of more
    nodes than one lattice slice."""
    block = len(cyl.time_levels) * np.count_nonzero(cyl.box_mask)
    return block > np.prod(cyl.grid.spatial_shape)


def column_oracle(u, cyl):
    """Mean, min and max of each gathered column, laid out contiguously."""
    columns = np.ascontiguousarray(gathered(u, cyl).T)
    mean = np.add.reduce(columns, axis=1) / columns.shape[1]
    return mean, columns.min(axis=1), columns.max(axis=1)


def assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def assert_reductions_on_their_side(data, cyl):
    """column_reductions on a fresh field: the oracle's bits and the
    memo's, signed zeros included, and a memo entry exactly when the
    block is above the rule.  Returns whether it is."""
    u = GridFunction(cyl.grid, data)
    got = cyl.column_reductions(u)
    large = bool(above_the_rule(cyl))
    assert [k for k in u._memo if isinstance(k, tuple)] == ([cyl.window] if large else [])
    assert_same_bits(got, column_oracle(u, cyl))
    mask = cyl.spatial_mask
    assert_same_bits(got, [w[mask] for w in u.window_reductions(*cyl.window)])
    assert not np.signbit(got[0][got[0] == 0.0]).any()
    return large


# (grid, center x0, radius of the small cylinder in steps): each window
# length is taken at the bottom of a 301-level history (r^2 reaches past
# it), once with the small radius, which stays within one lattice slice
# even at 300 levels, and once with the box's half width.  The face
# center keeps the half-space cylinder to the three columns above it.
REDUCTION_LAYOUTS = [
    (dict(n_dim=1, h=1.0 / 512), (0.25,), 1.5),
    (dict(n_dim=2, h=1.0 / 32), (0.25, -0.5), 1.5),
    (dict(n_dim=2, h=1.0 / 32, half_space=True), (0.25, 0.0), 1.5),
    (dict(n_dim=2, h=1.0 / 32, stagger=True), (0.125, 0.015625), 1.5),
    (dict(n_dim=3, h=1.0 / 8), (0.125, 0.0, -0.25), 1.2),
]
WINDOW_LENGTHS = (1, 7, 8, 129, 300)


def test_column_reductions_match_the_gathered_block():
    u = random_field()
    sides = [
        assert_reductions_on_their_side(u.data, cylinder_nodes(u.grid, (np.array(x0), t0), r))
        for x0, t0, r in INTERIOR_CASES
    ]
    assert True in sides and False in sides
    for i, (kwargs, x0, small) in enumerate(REDUCTION_LAYOUTS):
        h = kwargs["h"]
        tau = 2.0 ** np.floor(np.log2((small * h) ** 2 / 300))
        grid = Grid(tau=tau, time_extent=300 * tau, **kwargs)
        rng = np.random.default_rng(i)
        data = rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape)
        data *= rng.uniform(0.1, 10.0, (grid.n_time_levels,) + (1,) * grid.n_dim)
        # columns of negative zeros, whose mean is +0.0 on either side
        data.reshape(grid.n_time_levels, -1)[:, ::7] = -0.0
        sides = set()
        for levels in WINDOW_LENGTHS:
            t0 = grid.time_values[levels - 1]
            for r in (small * h, 1.0):
                cyl = cylinder_nodes(grid, (np.array(x0), t0), r)
                assert len(cyl.time_levels) == levels
                sides.add((levels, assert_reductions_on_their_side(data, cyl)))
        # a window of 1 level fits in one slice whatever the radius; every
        # longer window is taken on both sides of the rule
        assert sides == {(1, False)} | {(n, b) for n in WINDOW_LENGTHS[1:] for b in (False, True)}
    with pytest.raises(InputError, match="different grid"):
        cyl.column_reductions(u)


@pytest.mark.parametrize("levels", [1, 5, 8, 13, 128, 129, 300, 1037])
def test_level_sum_is_pairwise_along_each_column(levels):
    rng = np.random.default_rng(levels)
    block = rng.standard_normal((levels, 5, 7)) * rng.uniform(0.1, 10.0, (levels, 1, 1))
    block[:, 0] = -0.0  # numpy sums these to +0.0
    columns = np.ascontiguousarray(block.reshape(levels, -1).T)
    expected = np.add.reduce(columns, axis=1).reshape(5, 7)
    assert grid_module._level_sum(block).tobytes() == expected.tobytes()


def _counting_window_reductions(monkeypatch):
    """Count the memo's whole-lattice reductions; box views are not counted."""
    calls = []
    real = grid_module._window_reductions
    memo_code = GridFunction.window_reductions.__code__

    def counting(block):
        if sys._getframe(1).f_code is memo_code:
            calls.append(block.shape[0])
        return real(block)

    monkeypatch.setattr(grid_module, "_window_reductions", counting)
    return calls


def test_shared_windows_are_reduced_once(monkeypatch):
    u = random_field()
    calls = _counting_window_reductions(monkeypatch)
    coords = u.grid.axis_coords(0)
    rng = np.random.default_rng(0)
    points = [(coords[rng.integers(4, len(coords) - 4, size=2)], 0.0) for _ in range(10)]
    windows, small = set(), 0
    for pt in points:
        rep = decay_sequence(u, pt, eta=0.75, K=9)
        for e in rep.entries:
            if above_the_rule(e.fit.cylinder):
                windows.add(e.fit.cylinder.window)
            else:
                small += 1
    # every scale past r^2 = T clips to the whole history, so the ten
    # points share a handful of windows, each above the rule
    assert 0 < len(windows) < 10 and small > 0
    assert (0, u.grid.n_time_levels - 1) in windows
    assert len(calls) == len(windows)
    stored = {k: v for k, v in u._memo.items() if isinstance(k, tuple)}
    assert set(stored) == windows
    for lo, hi in windows:
        slices = stored[(lo, hi)]
        assert len(slices) == 3
        assert all(s.shape == u.grid.spatial_shape for s in slices)
        assert not any(s.flags.writeable for s in slices)
        assert u.window_reductions(lo, hi) is slices
    assert len(calls) == len(windows)


def test_cylinders_below_the_rule_add_no_memo_entry(monkeypatch):
    # the p-sweep's geometry: ten points at t0 = 0, clipped scales
    # skipped, and every contained scale's block within one slice
    grid = Grid(n_dim=2, h=1.0 / 16, tau=2.0**-10, time_extent=2.0**-6)
    rng = np.random.default_rng(2)
    u = GridFunction(grid, rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape))
    calls = _counting_window_reductions(monkeypatch)
    coords = grid.axis_coords(0)
    fits = 0
    for _ in range(10):
        x0 = coords[rng.integers(4, len(coords) - 4, size=2)]
        rep = decay_sequence(u, (x0, 0.0), eta=0.75, K=9, fit_clipped=False)
        assert not any(above_the_rule(e.fit.cylinder) for e in rep.entries)
        fits += len(rep.entries)
    assert fits >= 20
    assert calls == []
    assert list(u._memo) == ["sup_norm"]


def test_a_decay_pass_gathers_no_block(monkeypatch):
    # the p-sweep's fits reduce views of their boxes: none gathers its
    # (levels x columns) block through CylinderIndex.values
    grid = Grid(n_dim=2, h=1.0 / 16, tau=2.0**-10, time_extent=2.0**-6)
    rng = np.random.default_rng(4)
    u = GridFunction(grid, rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape))
    real_values = grid_module.CylinderIndex.values
    gathers = []

    def counting_values(self, field):
        gathers.append(self.window)
        return real_values(self, field)

    monkeypatch.setattr(grid_module.CylinderIndex, "values", counting_values)
    coords = grid.axis_coords(0)
    fits = 0
    for _ in range(10):
        x0 = coords[rng.integers(4, len(coords) - 4, size=2)]
        fits += len(decay_sequence(u, (x0, 0.0), eta=0.75, K=9, fit_clipped=False).entries)
    assert fits >= 20
    assert gathers == []


def test_memo_keeps_a_bounded_number_of_windows():
    u = random_field()
    top = u.grid.n_time_levels - 1
    for lo in range(top + 1):
        u.window_reductions(lo, top)
    windows = [k for k in u._memo if isinstance(k, tuple)]
    assert len(windows) == min(top + 1, grid_module._WINDOW_SLOTS)
    # the oldest windows went first
    assert windows[-1] == (top, top)
    with pytest.raises(InputError, match="time window"):
        u.window_reductions(3, top + 1)
    with pytest.raises(InputError, match="time window"):
        u.window_reductions(4, 3)


def test_sup_norm_is_computed_once_and_stays_a_property():
    assert isinstance(GridFunction.__dict__["sup_norm"], property)
    u = random_field()
    assert u.sup_norm == float(np.max(np.abs(u.data)))
    assert u._memo["sup_norm"] == u.sup_norm
    grid = Grid(n_dim=1, h=0.25, tau=0.25, spatial_extent=1.0, time_extent=0.25)
    zero = GridFunction(grid=grid, data=-np.zeros((2, 9)))
    assert zero.sup_norm == 0.0
    assert np.copysign(1.0, zero.sup_norm) == 1.0


def test_construction_keeps_its_finiteness_scan_as_the_sup_norm():
    # a restricted box (what membership_tolerance reads) is scanned once:
    # the sup norm is in the memo before anything asks for it
    box = restrict(random_field(seed=8), 0.5, 0.125)
    want = float(max(0.0, box.data.max(), -box.data.min()))
    assert box._memo["sup_norm"] == want == box.sup_norm


def test_copies_and_pickles_start_a_fresh_memo():
    u = random_field()
    u.window_reductions(0, 3)
    for v in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u), copy.copy(u)):
        assert v.grid == u.grid
        assert np.array_equal(v.data, u.data)
        assert v._memo == {"sup_norm": u.sup_norm}


def test_an_unpickled_field_is_checked_finite():
    u = random_field()
    bad = u.data.copy()
    bad[0, 0, 0] = np.nan
    blob = pickle.dumps(u)
    assert blob.count(u.data.tobytes()) == 1
    with pytest.raises(InputError):
        pickle.loads(blob.replace(u.data.tobytes(), bad.tobytes()))


def test_global_report_runs_one_decay_per_point(monkeypatch):
    u = random_field(half_space=True)
    interior = [(np.array([0.0, 0.5]), 0.0), (np.array([0.25, 0.5]), -1.0 / 16)]
    boundary = [(np.array([0.0, 0.0]), 0.0), (np.array([0.25, 0.0]), -1.0 / 16)]
    expected = [pointwise_c1a_norm(u, pt, 0.9) for pt in interior]
    calls = []
    real = regularity.decay_sequence

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(regularity, "decay_sequence", counting)
    rep = global_report(u, 0.9, interior_points=interior, boundary_points=boundary)
    assert len(calls) == len(interior)
    assert [row.seminorm for row in rep.rows[:2]] == expected
    assert [row.alpha_est for row in rep.rows[:2]] == [
        real(u, pt, eta=0.5).alpha_est for pt in interior
    ]
    assert [row.kind for row in rep.rows] == ["interior"] * 2 + ["boundary"] * 2
    assert all(row.seminorm > 0.0 for row in rep.rows)


def test_threads_sharing_a_field_reduce_each_window_once(monkeypatch):
    u = random_field()
    coords = u.grid.axis_coords(0)
    points = [(np.array([coords[i], coords[-i - 1]]), 0.0) for i in range(6, 14)]
    serial = [decay_sequence(random_field(), pt, eta=0.75, K=9) for pt in points]
    large = {e.fit.cylinder.window for rep in serial for e in rep.entries
             if above_the_rule(e.fit.cylinder)}
    # the sup errors compared below come from fits on both sides of the rule
    assert large and not all(above_the_rule(e.fit.cylinder) for e in serial[0].entries)
    calls = _counting_window_reductions(monkeypatch)
    results = [None] * len(points)

    def work(i):
        results[i] = decay_sequence(u, points[i], eta=0.75, K=9).sup_errors

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(points))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == len(large)
    assert {k for k in u._memo if isinstance(k, tuple)} == large
    for got, want in zip(results, serial):
        assert got.tobytes() == want.sup_errors.tobytes()


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_a_small_cylinder_costs_the_same_on_any_lattice():
    # Q_{3h} holds the same 5 x 5 block of columns on a 65^2 and on a
    # 257^2 lattice; nothing of its fit may scale with the lattice (a
    # lattice-sized mask alone is 66 KB here), neither the first fit on
    # a fresh field nor a later one
    peaks = {}
    for h in (1.0 / 32, 1.0 / 128):
        grid = Grid(n_dim=2, h=h, tau=h * h, time_extent=16 * h * h)
        rng = np.random.default_rng(3)
        u = GridFunction(grid, rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape))
        center = (np.zeros(2), 0.0)
        cyl = cylinder_nodes(grid, center, 3 * h)
        cold = _traced_peak(lambda: best_linear_fit(u, cyl))
        peaks[grid.spatial_shape[0]] = {
            "cold fit": cold,
            "fit": _traced_peak(lambda: best_linear_fit(u, cyl)),
            "values": _traced_peak(lambda: cyl.values(u)),
            "reductions": _traced_peak(lambda: cyl.column_reductions(u)),
            "cylinder": _traced_peak(lambda: cylinder_nodes(grid, center, 3 * h)),
        }
    small, large = peaks[65], peaks[257]
    for key in ("cold fit", "fit", "values", "reductions"):
        assert large[key] <= small[key], (key, peaks)
    # the cylinder reads each axis's coordinates once: a few axis-length
    # arrays, never a lattice-sized one
    assert large["cylinder"] - small["cylinder"] <= 4 * 8 * 257, peaks


# ---------------------------------------------------------------------------
# Exponent-only sequences: fit_clipped=False builds and fits no clipped scale.


def kinked_field(half_space=False, stagger=False, n_dim=2, h=1.0 / 16, time_extent=1.0 / 16):
    """|x - p|^1.5 plus a drift, or x_n |x - p|^0.5 on half-space grids (zero face).

    The kink at p gives exponents inside (0, 1) near it, so the
    regressions compared below are not clamped to a convention.
    """
    grid = Grid(
        n_dim=n_dim, h=h, tau=h * h / 4, time_extent=time_extent,
        half_space=half_space, stagger=stagger,
    )
    p = [0.1] * (n_dim - 1) + [0.0 if half_space else 0.1]

    def expr(mesh, t):
        dist = np.sqrt(sum((m - c) ** 2 for m, c in zip(mesh, p)))
        if half_space:
            return mesh[-1] * np.sqrt(dist) * (1.0 + t)
        return dist**1.5 + t * mesh[0]

    return sample(expr, grid)


# (field, decay center x0, t0, eta, K): centers near the kink, near the
# box edge and on it (every scale clipped), windows ending below t = 0
FIT_CLIPPED_CASES = [
    (dict(n_dim=1, h=1.0 / 64), (0.09375,), 0.0, 0.75, 12),
    (dict(n_dim=1, h=1.0 / 64), (0.9375,), 0.0, 0.6, 8),
    (dict(n_dim=1, h=1.0 / 64), (1.0,), 0.0, 0.5, 4),
    (dict(), (0.125, 0.125), 0.0, 0.75, 9),
    (dict(), (0.875, -0.8125), -1.0 / 64, 0.6, 5),
    (dict(), (-0.25, 0.5), -0.5 / 16, 0.75, 9),
    (dict(), (1.0, 0.0), 0.0, 0.5, 3),
    (dict(), (0.0, 0.0), 0.0, 0.75, 0),
    (dict(n_dim=3, h=1.0 / 8), (0.125, 0.125, 0.125), 0.0, 0.7, 5),
    (dict(n_dim=3, h=1.0 / 8), (0.75, -0.625, 0.0), 0.0, 0.7, 5),
    (dict(stagger=True), (0.125, 0.09375), 0.0, 0.75, 9),
    (dict(stagger=True), (0.8125, 0.90625), 0.0, 0.6, 5),
    (dict(half_space=True), (0.125, 0.25), 0.0, 0.75, 9),
    (dict(half_space=True), (-0.5, 0.0625), 0.0, 0.75, 9),
]
BOUNDARY_CLIPPED_CASES = [
    (dict(), (0.0, 0.0), 0.0, 0.75, 9),
    (dict(), (0.875, 0.0), -1.0 / 64, 0.6, 5),
    (dict(), (1.0, 0.0), 0.0, 0.5, 3),
    (dict(n_dim=1, h=1.0 / 64), (0.0,), 0.0, 0.75, 12),
    (dict(n_dim=3, h=1.0 / 8), (0.25, -0.75, 0.0), 0.0, 0.7, 5),
]


def assert_lean_is_the_contained_suffix(full, lean):
    assert lean.alpha_est.hex() == full.alpha_est.hex()
    assert lean.regression_residual.hex() == full.regression_residual.hex()
    contained = [e for e in full.entries if not e.clipped]
    assert full.entries[len(full.entries) - len(contained):] == tuple(contained)
    assert len(lean.entries) == len(contained)
    for mine, theirs in zip(lean.entries, contained):
        assert mine.k == theirs.k
        assert mine.fit.a == theirs.fit.a and mine.sup_error == theirs.sup_error
        assert np.array_equal(mine.fit.b, theirs.fit.b)
        assert (mine.resolved, mine.clipped) == (theirs.resolved, False)


@pytest.mark.parametrize("layout,x0,t0,eta,K", FIT_CLIPPED_CASES)
def test_skipping_clipped_scales_keeps_the_exponent_bits(layout, x0, t0, eta, K):
    u = kinked_field(**layout)
    center = (np.array(x0), t0)
    full = decay_sequence(u, center, eta=eta, K=K)
    lean = decay_sequence(u, center, eta=eta, K=K, fit_clipped=False)
    assert_lean_is_the_contained_suffix(full, lean)


@pytest.mark.parametrize("layout,x0,t0,eta,K", BOUNDARY_CLIPPED_CASES)
def test_boundary_skipping_clipped_scales_keeps_the_exponent_bits(layout, x0, t0, eta, K):
    u = kinked_field(half_space=True, **layout)
    center = (np.array(x0), t0)
    full = boundary_decay_sequence(u, eta=eta, K=K, center=center)
    lean = boundary_decay_sequence(u, eta=eta, K=K, center=center, fit_clipped=False)
    assert_lean_is_the_contained_suffix(full, lean)


def test_the_clipped_cases_cover_both_ends():
    # some cases regress on an unclamped exponent, some clip every scale
    alphas, empty = [], 0
    for layout, x0, t0, eta, K in FIT_CLIPPED_CASES:
        lean = decay_sequence(kinked_field(**layout), (np.array(x0), t0), eta=eta, K=K,
                              fit_clipped=False)
        alphas.append(lean.alpha_est)
        empty += lean.entries == ()
    assert empty >= 3
    assert sum(0.0 < a < 1.0 for a in alphas) >= 6, alphas


@pytest.mark.parametrize(
    "center",
    [
        (["a", 1.0], 0.0),
        (np.zeros(3), 0.0),
        (np.zeros(2), "now"),
        (np.array([np.nan, 0.0]), 0.0),
        (np.zeros(2), np.inf),
    ],
)
def test_malformed_centers_fail_alike_when_every_scale_is_skipped(center):
    # K = 2 at t0 = 0 on a box of depth 1/16 clips every scale, so no
    # cylinder is built in the lean run: the center is checked up front
    u = kinked_field()
    for fit_clipped in (True, False):
        with pytest.raises(InputError):
            decay_sequence(u, center, eta=0.5, K=2, fit_clipped=fit_clipped)


def test_a_window_past_the_lattice_clips_every_scale_unbuilt():
    u = kinked_field()
    late = (np.zeros(2), 0.5)
    with pytest.raises(DegenerateCylinderError):
        decay_sequence(u, late, eta=0.5, K=2)
    lean = decay_sequence(u, late, eta=0.5, K=2, fit_clipped=False)
    assert lean.entries == () and lean.alpha_est == 1.0 and lean.regression_residual == 0.0
    header, rows = decay_report_rows(lean)
    assert header[3:5] == ["b1", "b2"] and rows == []


def _sweep_field_grid():
    # eta = 0.75, K = 6 at T = 1/8: scales 4..6 are contained at every
    # sweep point, 0..3 are clipped in time
    return Grid(n_dim=2, h=1.0 / 16, tau=2.0**-11, time_extent=0.125, half_space=True)


def _counting_cylinders(monkeypatch):
    contained = []
    real = regularity.cylinder_nodes

    def counting(*args, **kwargs):
        cyl = real(*args, **kwargs)
        contained.append(cyl.contained)
        return cyl

    monkeypatch.setattr(regularity, "cylinder_nodes", counting)
    return contained


def _fitting_every_scale(monkeypatch):
    """Make the sweeps fit their clipped scales too, as the default does."""
    for name in ("decay_sequence", "boundary_decay_sequence"):
        real = getattr(scenarios, name)
        monkeypatch.setattr(
            scenarios, name,
            lambda *args, _real=real, fit_clipped=False, **kwargs: _real(*args, **kwargs),
        )


def test_sweeps_build_no_clipped_cylinder(monkeypatch):
    zero = lambda mesh, t: 0.0
    g = make_field({"name": "quadratic_caloric"}, 2)
    # boundary fits need a field vanishing on the face
    g_odd = make_field({"name": "odd_cubic_caloric"}, 2)
    p_args = ([2.0, 2.25], 0.5, _sweep_field_grid(), zero, g_odd)
    p_kwargs = dict(n_points=3, seed=1, eta=0.75, K=6)
    e_args = ([0.5], Grid(n_dim=2, h=1.0 / 16, tau=2.0**-11, time_extent=0.125), zero, g)
    e_kwargs = dict(eta=0.75, K=6)

    contained = _counting_cylinders(monkeypatch)
    table = run_p_sweep(*p_args, **p_kwargs)
    assert table.all_ok
    # per exponent: each point's contained scales, and its face projection's
    centers = [(np.array(x), t) for x, t in table.points + table.boundary_points]
    inside = sum(
        cylinder_nodes(p_args[2], c, 0.75**k).contained for c in centers for k in range(7)
    )
    assert 0 < inside < 7 * len(centers)
    assert contained == [True] * (2 * inside)
    contained.clear()
    rows = run_ellipticity_sweep(*e_args, **e_kwargs)
    assert rows[0].status == "ok"
    assert contained == [True] * 3  # scales 4..6 at the origin

    # the same rows as when every scale is fitted
    _fitting_every_scale(monkeypatch)
    contained.clear()
    assert run_p_sweep(*p_args, **p_kwargs) == table
    assert run_ellipticity_sweep(*e_args, **e_kwargs) == rows
    assert contained.count(False) == 2 * (7 * len(centers) - inside) + 4


def test_sweeps_no_longer_fail_on_a_degenerate_clipped_scale():
    # On this 5^2 lattice of depth 1/16 both scales, r = 1 and 0.4, are
    # clipped in time, and Q_0.4 holds only its center column: the sweep
    # reads no fit of either, so its rows succeed with the conventional
    # exponent 1, while a full decay sequence still refuses the scale.
    zero = lambda mesh, t: 0.0
    g = make_field({"name": "quadratic_caloric"}, 2)
    grid = Grid(n_dim=2, h=0.5, tau=2.0**-6, time_extent=2.0**-4)
    table = run_p_sweep([2.0], 0.5, grid, zero, g, n_points=2, seed=0, eta=0.4, K=1)
    assert table.rows[0].status == "ok" and table.rows[0].alphas == (1.0, 1.0)
    (row,) = run_ellipticity_sweep([0.5], grid, zero, g, eta=0.4, K=1)
    assert row.status == "ok" and row.alpha_est == 1.0
    u = sample(g, grid)
    with pytest.raises(DegenerateCylinderError, match="1 spatial column"):
        decay_sequence(u, (np.zeros(2), 0.0), eta=0.4, K=1)
