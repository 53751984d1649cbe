"""The fit path: fits read off memoized per-column window reductions.

The oracles here work on the full (levels x columns) block of values,
gathered with the fancy index the fits no longer use.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

import puccilab.grid as grid_module
import puccilab.regularity as regularity
from puccilab.errors import InputError
from puccilab.grid import Grid, GridFunction, cylinder_nodes
from puccilab.regularity import (
    best_linear_fit,
    boundary_decay_sequence,
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


def test_column_reductions_match_the_gathered_block():
    u = random_field()
    for x0, t0, r in INTERIOR_CASES:
        cyl = cylinder_nodes(u.grid, (np.array(x0), t0), r)
        mean, lo, hi = cyl.column_reductions(u)
        values = gathered(u, cyl)
        assert np.array_equal(mean, values.mean(axis=0))
        assert np.array_equal(lo, values.min(axis=0))
        assert np.array_equal(hi, values.max(axis=0))
    other = random_field(half_space=True)
    with pytest.raises(InputError, match="different grid"):
        cyl.column_reductions(other)


@pytest.mark.parametrize("levels", [1, 5, 8, 13, 128, 129, 300, 1037])
def test_level_sum_is_pairwise_along_each_column(levels):
    rng = np.random.default_rng(levels)
    block = rng.standard_normal((levels, 5, 7)) * rng.uniform(0.1, 10.0, (levels, 1, 1))
    columns = np.ascontiguousarray(block.reshape(levels, -1).T)
    expected = np.add.reduce(columns, axis=1).reshape(5, 7)
    assert np.array_equal(grid_module._level_sum(block), expected)


def test_shared_windows_are_reduced_once(monkeypatch):
    u = random_field()
    calls = []
    real = grid_module._window_reductions

    def counting(block):
        calls.append(block.shape[0])
        return real(block)

    monkeypatch.setattr(grid_module, "_window_reductions", counting)
    coords = u.grid.axis_coords(0)
    rng = np.random.default_rng(0)
    points = [(coords[rng.integers(4, len(coords) - 4, size=2)], 0.0) for _ in range(10)]
    windows = set()
    for pt in points:
        rep = decay_sequence(u, pt, eta=0.75, K=9)
        windows.update(e.fit.cylinder.window for e in rep.entries)
    # every scale past r^2 = T clips to the whole history, so the ten
    # points share a handful of windows
    assert len(windows) < 10
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


def test_copies_and_pickles_start_a_fresh_memo():
    u = random_field()
    u.window_reductions(0, 3)
    for v in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u), copy.copy(u)):
        assert v.grid == u.grid
        assert np.array_equal(v.data, u.data)
        assert v._memo == {}
        assert v.sup_norm == u.sup_norm


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
    serial = [decay_sequence(random_field(), pt, eta=0.75, K=9).sup_errors for pt in points]
    calls = []
    real = grid_module._window_reductions

    def counting(block):
        calls.append(block.shape[0])
        return real(block)

    monkeypatch.setattr(grid_module, "_window_reductions", counting)
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
    assert len(calls) == len([k for k in u._memo if isinstance(k, tuple)])
    for got, want in zip(results, serial):
        assert np.array_equal(got, want)
