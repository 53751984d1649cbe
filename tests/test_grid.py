"""Lattice, cylinder enumeration, and the file format."""

import copy
import json
import pickle
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from puccilab.errors import (
    DegenerateCylinderError,
    GridFileError,
    InputError,
)
from puccilab.grid import (
    Grid,
    _ball_mask,
    GridFunction,
    cylinder_nodes,
    read_gridfn,
    restrict,
    sample,
    write_gridfn,
)

np.random.seed(42)


def brute_force_cylinder(grid, x0, t0, r):
    """Independent node enumeration: nested loops, no masks."""
    nodes = []
    for m in range(grid.n_time_levels):
        t = grid.time_value(m)
        if not (t0 - r * r + 1e-12 * (1 + abs(t0) + r * r) < t <= t0 + 1e-12 * (1 + abs(t0) + r * r)):
            continue
        for idx in np.ndindex(grid.spatial_shape):
            x = np.array([grid.axis_coords(i)[idx[i]] for i in range(grid.n_dim)])
            if np.sum((x - x0) ** 2) >= r * r - 1e-12 * r * r:
                continue
            if grid.half_space and x[-1] <= 0.0:
                continue
            nodes.append((m, idx))
    return nodes


def test_grid_validation():
    with pytest.raises(InputError):
        Grid(n_dim=2, h=-0.1, tau=0.01)
    with pytest.raises(InputError):
        Grid(n_dim=2, h=0.3, tau=0.01)  # 1/0.3 not integer
    with pytest.raises(InputError):
        Grid(n_dim=2, h=0.25, tau=0.3)
    with pytest.raises(InputError):
        Grid(n_dim=1, h=0.25, tau=0.25, half_space=True, stagger=True)
    for bad in (dict(n_dim="a"), dict(n_dim=None), dict(n_dim=np.inf), dict(h="0.25"), dict(tau=[0.25])):
        with pytest.raises(InputError):
            Grid(**{**dict(n_dim=2, h=0.25, tau=0.25), **bad})


@pytest.mark.parametrize("name", ["half_space", "stagger"])
def test_grid_flags_are_booleans(name):
    for bad in ("no", "false", 1, 0, None, 1.0):
        with pytest.raises(InputError, match=f"{name} must be true or false"):
            Grid(n_dim=1, h=0.5, tau=0.5, **{name: bad})
    grid = Grid(n_dim=1, h=0.5, tau=0.5, **{name: np.bool_(True)})
    assert type(getattr(grid, name)) is bool and getattr(grid, name)
    assert grid == Grid(n_dim=1, h=0.5, tau=0.5, **{name: True})


def test_axis_layout():
    g = Grid(n_dim=2, h=0.25, tau=0.25)
    assert g.spatial_shape == (9, 9)
    assert np.allclose(g.axis_coords(0), np.arange(-4, 5) * 0.25)
    gs = Grid(n_dim=1, h=0.25, tau=0.25, stagger=True)
    assert gs.spatial_shape == (8,)
    assert np.allclose(gs.axis_coords(0), np.arange(-4, 4) * 0.25 + 0.125)
    gh = Grid(n_dim=2, h=0.25, tau=0.25, half_space=True)
    assert gh.spatial_shape == (9, 5)
    assert np.allclose(gh.axis_coords(1), np.arange(0, 5) * 0.25)
    assert gh.time_value(gh.n_time_levels - 1) == 0.0
    assert gh.time_value(0) == -1.0


@pytest.mark.parametrize("layout", [{}, {"half_space": True}, {"stagger": True}])
def test_coordinate_arrays_are_built_once_and_read_only(layout):
    g = Grid(n_dim=2, h=0.25, tau=0.125, **layout)
    fresh = Grid(n_dim=2, h=0.25, tau=0.125, **layout)
    arrays = [g.axis_coords(0), g.axis_coords(1), g.time_values]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0
    assert g.axis_coords(1) is arrays[1] and g.time_values is arrays[2]
    assert np.array_equal(g.time_values, (np.arange(9) - 8) * 0.125)
    # the caches are no part of the value: equality, hash and pickle bytes
    # match a grid that built none, and a copy builds its own
    assert g == fresh and hash(g) == hash(fresh)
    assert pickle.dumps(g) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert clone == g
        assert "_axis_coords" not in vars(clone) and "time_values" not in vars(clone)
        assert np.array_equal(clone.axis_coords(1), arrays[1])


_PLAIN2 = dict(n_dim=2, h=0.25, tau=0.125)
_HALF2 = dict(n_dim=2, h=0.25, tau=0.125, half_space=True)
_STAG2 = dict(n_dim=2, h=0.25, tau=0.125, stagger=True)


@pytest.mark.parametrize(
    "kwargs,center,r",
    [
        (_PLAIN2, (np.zeros(2), 0.0), 0.8),
        (_PLAIN2, (np.array([0.25, -0.5]), -0.125), 0.6),
        (dict(n_dim=1, h=0.125, tau=0.0625, stagger=True), (np.zeros(1), 0.0), 0.5),
        (_HALF2, (np.zeros(2), 0.0), 0.7),
        (dict(n_dim=3, h=0.5, tau=0.25), (np.zeros(3), 0.0), 1.0),
        # edge-clipped, between nodes, below one step, beyond the lattice
        (_PLAIN2, (np.array([0.875, -1.0]), 0.0), 0.6),
        (_PLAIN2, (np.array([0.1, -0.37]), -0.3), 0.45),
        (_PLAIN2, (np.array([0.1, 0.1]), 0.0), 0.2),
        (_PLAIN2, (np.array([-0.3, 0.7]), 0.0), 5.0),
        (_PLAIN2, (np.array([1.3, 0.0]), 0.0), 0.5),
        (dict(n_dim=1, h=0.125, tau=0.0625), (np.array([0.95]), -0.125), 0.3),
        (dict(n_dim=1, h=0.125, tau=0.0625, half_space=True), (np.array([0.06]), 0.0), 0.1),
        (_HALF2, (np.array([-0.9, 0.3]), -0.25), 0.45),
        (_HALF2, (np.array([0.5, 0.0]), 0.0), 9.0),
        (_STAG2, (np.array([0.0, 0.0]), 0.0), 0.6),
        (_STAG2, (np.array([-0.6, 0.875]), -0.125), 0.4),
        (dict(n_dim=3, h=0.25, tau=0.25), (np.array([0.6, -0.9, 0.25]), -0.25), 0.55),
        (dict(n_dim=3, h=0.25, tau=0.25, half_space=True), (np.array([0.0, 0.3, 0.0]), 0.0), 0.6),
        (dict(n_dim=3, h=0.25, tau=0.25, stagger=True), (np.array([0.1, 0.0, -0.9]), 0.0), 3.0),
    ],
)
def test_cylinder_matches_brute_force(kwargs, center, r):
    grid = Grid(**kwargs)
    cyl = cylinder_nodes(grid, center, r)
    assert sorted(cyl.node_list) == sorted(brute_force_cylinder(grid, center[0], center[1], r))
    # the box-local columns are the lattice's row-major columns, in order
    mask = cyl.spatial_mask
    where = np.argwhere(mask)
    offsets = np.stack(
        [grid.axis_coords(i)[where[:, i]] - center[0][i] for i in range(grid.n_dim)], axis=1
    )
    assert np.array_equal(cyl.spatial_offsets(), offsets)
    rng = np.random.default_rng(len(where))
    u = GridFunction(grid, rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape))
    assert np.array_equal(cyl.values(u), u.data[cyl.time_levels][:, mask])
    whole = u.window_reductions(*cyl.window)
    for got, want in zip(cyl.column_reductions(u), whole):
        assert np.array_equal(got, want[mask])
    # the box: every node within r of x0 along the axis, one node of margin
    for i, span in enumerate(cyl.box):
        dist = np.abs(grid.axis_coords(i) - center[0][i])
        inside = np.zeros(dist.size, dtype=bool)
        inside[span] = True
        assert inside[dist < r].all()
        assert (dist[inside] <= r + grid.h).all()


def test_an_overflowing_radius_holds_every_node():
    grid = Grid(n_dim=2, h=0.25, tau=1.0 / 64, time_extent=0.25)
    every_node = set(np.ndindex(grid.spatial_shape))
    for r in (1e155, 1e300, np.finfo(float).max):
        cyl = cylinder_nodes(grid, (np.zeros(2), 0.0), r)
        assert cyl.radius == r and not cyl.contained
        assert np.array_equal(cyl.time_levels, np.arange(grid.n_time_levels))
        assert {idx for _, idx in cyl.node_list} == every_node
    # a large finite square gives the same cylinder as a huge one, and
    # below t0 the window never gains a level above it
    t0 = grid.time_value(10)
    for r in (1e3, 1e150, 1e300):
        cyl = cylinder_nodes(grid, (np.array([0.3, -0.1]), t0), r)
        assert np.array_equal(cyl.time_levels, np.arange(11))
        assert cyl.spatial_mask.all()
    gh = Grid(n_dim=2, h=0.25, tau=1.0 / 64, time_extent=0.25, half_space=True)
    cyl = cylinder_nodes(gh, (np.zeros(2), 0.0), 1e300)
    off_face = np.broadcast_to(gh.coordinate_mesh()[1] > 0.0, gh.spatial_shape)
    assert np.array_equal(cyl.spatial_mask, off_face)


@pytest.mark.parametrize("layout", ["plain", "half_space", "stagger"])
@pytest.mark.parametrize("n_dim", [1, 2, 3])
def test_ball_mask_matches_brute_force(n_dim, layout):
    # the marched ball and the cylinders share it
    flags = {} if layout == "plain" else {layout: True}
    grid = Grid(n_dim=n_dim, h=0.125, tau=0.125, spatial_extent=0.5, **flags)
    r = grid.spatial_extent
    brute = {idx for _, idx in brute_force_cylinder(grid, np.zeros(n_dim), 0.0, r)}
    assert {tuple(i) for i in np.argwhere(_ball_mask(grid, r))} == brute


def test_cylinder_degenerate_cases():
    grid = Grid(n_dim=2, h=0.25, tau=0.125)
    # radius below the step: only the center column survives, no spatial info
    with pytest.raises(DegenerateCylinderError):
        cylinder_nodes(grid, (np.zeros(2), 0.0), 0.2)
    # a single off-center column is legitimate (half-space, one dimension)
    gh = Grid(n_dim=1, h=0.25, tau=0.0625, half_space=True)
    cyl = cylinder_nodes(gh, (np.zeros(1), 0.0), 0.5)
    assert cyl.node_count > 0
    offs = cyl.spatial_offsets()
    assert offs.shape[0] == 1 and abs(offs[0, 0] - 0.25) < 1e-15


def test_cylinder_leaves_the_callers_center_writable():
    grid = Grid(n_dim=2, h=0.25, tau=0.125)
    x0 = np.array([0.25, 0.0])
    cyl = cylinder_nodes(grid, (x0, 0.0), 0.6)
    x0[0] = 0.5
    assert not cyl.center_x.flags.writeable and cyl.center_x[0] == 0.25


def test_cylinder_contained_flag():
    grid = Grid(n_dim=2, h=0.25, tau=0.0625)
    assert cylinder_nodes(grid, (np.zeros(2), 0.0), 1.0).contained
    assert not cylinder_nodes(grid, (np.array([0.75, 0.0]), 0.0), 0.5).contained
    assert not cylinder_nodes(grid, (np.zeros(2), -0.9), 0.5).contained
    # half-space: face-centered half cylinders count as contained
    gh = Grid(n_dim=2, h=0.25, tau=0.0625, half_space=True)
    assert cylinder_nodes(gh, (np.zeros(2), 0.0), 0.5).contained
    # interior centers are clipped by the face like any boundary
    assert not cylinder_nodes(gh, (np.array([0.0, 0.25]), 0.0), 0.5).contained


def test_file_round_trip_bit_exact(tmp_path):
    grid = Grid(n_dim=2, h=0.25, tau=0.125, half_space=True)
    data = np.random.randn(grid.n_time_levels, *grid.spatial_shape)
    u = GridFunction(grid=grid, data=data)
    path = tmp_path / "field.puc"
    write_gridfn(u, path)
    back = read_gridfn(path)
    assert back.grid == grid
    assert back.data.tobytes() == u.data.tobytes()


def _encoded(u):
    """The .puc bytes of u, encoded in one piece: the file format's oracle."""
    meta = {**asdict(u.grid), "endianness": "little", "index_order": "time-major row-major"}
    return (
        b"PUCCILAB1\n"
        + json.dumps(meta, sort_keys=True).encode("ascii")
        + b"\n"
        + np.ascontiguousarray(u.data, dtype="<f8").tobytes()
    )


@pytest.mark.parametrize(
    "n_dim, flags",
    [(1, {}), (2, {}), (3, {}), (2, {"half_space": True})],
    ids=["1d", "2d", "3d", "half-space"],
)
def test_file_bytes_equal_the_one_piece_encoding(tmp_path, n_dim, flags):
    grid = Grid(n_dim=n_dim, h=0.25, tau=0.125, time_extent=0.5, **flags)
    rng = np.random.default_rng(n_dim)
    u = GridFunction(grid, rng.standard_normal((grid.n_time_levels,) + grid.spatial_shape))
    path = tmp_path / "field.puc"
    write_gridfn(u, path)
    assert path.read_bytes() == _encoded(u)


@pytest.mark.parametrize(
    "n_dim, h, tau, flags",
    [
        (1, 1.0 / 512, 1.0 / 1024, {}),
        (2, 1.0 / 64, 1.0 / 64, {}),
        (3, 1.0 / 16, 1.0 / 32, {}),
        (2, 1.0 / 64, 1.0 / 128, {"half_space": True}),
    ],
    ids=["1d", "2d", "3d", "half-space"],
)
def test_writing_a_field_copies_no_history(tmp_path, n_dim, h, tau, flags):
    # at least 8 MB of levels (65 of 129^2 doubles in 2-D): the writer
    # streams the levels from the field's own buffer
    grid = Grid(n_dim=n_dim, h=h, tau=tau, **flags)
    u = GridFunction(grid, np.ones((grid.n_time_levels,) + grid.spatial_shape))
    nbytes = u.data.nbytes
    assert nbytes >= 8 * 2**20
    tracemalloc.start()
    try:
        write_gridfn(u, tmp_path / "field.puc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nbytes / 4, (peak, nbytes)


def test_file_format_rejects_corruption(tmp_path):
    grid = Grid(n_dim=1, h=0.5, tau=0.5)
    u = sample(lambda x, t: x[0], grid)
    path = tmp_path / "field.puc"
    write_gridfn(u, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.puc"
    bad_magic.write_bytes(b"WRONG" + raw[5:])
    with pytest.raises(GridFileError):
        read_gridfn(bad_magic)

    truncated = tmp_path / "trunc.puc"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(GridFileError, match="bytes"):
        read_gridfn(truncated)

    padded = tmp_path / "padded.puc"
    padded.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(GridFileError):
        read_gridfn(padded)

    # flip the endianness tag in the metadata line
    text = raw.split(b"\n", 2)
    meta = text[1].replace(b'"little"', b'"big"')
    endian = tmp_path / "endian.puc"
    endian.write_bytes(text[0] + b"\n" + meta + b"\n" + text[2])
    with pytest.raises(GridFileError):
        read_gridfn(endian)

    nojson = tmp_path / "nojson.puc"
    nojson.write_bytes(text[0] + b"\nnot-json\n" + text[2])
    with pytest.raises(GridFileError):
        read_gridfn(nojson)

    textual = tmp_path / "textual.puc"
    meta = text[1].replace(b'"h": 0.5', b'"h": "half"')
    assert meta != text[1]
    textual.write_bytes(text[0] + b"\n" + meta + b"\n" + text[2])
    with pytest.raises(GridFileError, match="h must be a real number"):
        read_gridfn(textual)


@pytest.mark.parametrize(
    "meta, fragment",
    [
        (b"5", "not a JSON object"),
        (b"null", "not a JSON object"),
        (b'"endianness"', "not a JSON object"),
        (None, "half_space must be true or false"),
    ],
    ids=["number", "null", "string", "half_space-string"],
)
def test_file_metadata_must_be_an_object_of_typed_values(tmp_path, meta, fragment):
    grid = Grid(n_dim=1, h=0.5, tau=0.5)
    path = tmp_path / "field.puc"
    write_gridfn(sample(lambda x, t: x[0], grid), path)
    magic, line, payload = path.read_bytes().split(b"\n", 2)
    if meta is None:
        meta = line.replace(b'"half_space": false', b'"half_space": "false"')
        assert meta != line
    path.write_bytes(magic + b"\n" + meta + b"\n" + payload)
    with pytest.raises(GridFileError, match=fragment):
        read_gridfn(path)


def test_restrict_sub_box():
    grid = Grid(n_dim=2, h=0.125, tau=0.125)
    u = sample(lambda x, t: x[0] + 2 * x[1] + t, grid)
    sub = restrict(u, 0.5, 0.5)
    assert sub.grid.spatial_extent == 0.5
    assert sub.grid.spatial_shape == (9, 9)
    # same nodes, same values
    direct = sample(lambda x, t: x[0] + 2 * x[1] + t, sub.grid)
    assert np.array_equal(sub.data, direct.data)
    with pytest.raises(InputError):
        restrict(u, 2.0)


@pytest.mark.parametrize("n_dim", [1, 2])
def test_restrict_on_a_staggered_grid_selects_by_coordinates(n_dim):
    grid = Grid(n_dim=n_dim, h=0.125, tau=2.0**-6, time_extent=0.125, stagger=True)
    u = sample(lambda x, t: sum((i + 1.0) * x[i] for i in range(n_dim)) + t * t, grid)
    extent, depth = 0.5, 2.0**-4
    sub = restrict(u, extent, depth)
    # every node whose coordinates lie in the closed sub-box, found one by one
    axes = [
        [j for j, x in enumerate(grid.axis_coords(i)) if abs(x) <= extent + 1e-12]
        for i in range(n_dim)
    ]
    levels = [m for m in range(grid.n_time_levels) if grid.time_value(m) >= -depth - 1e-12]
    assert len(axes[-1]) == 8 and len(levels) == 5
    assert sub.grid.spatial_shape == tuple(len(a) for a in axes)
    for i in range(n_dim):
        assert np.array_equal(sub.grid.axis_coords(i), grid.axis_coords(i)[axes[i]])
    assert [sub.grid.time_value(m) for m in range(sub.grid.n_time_levels)] == [
        grid.time_value(m) for m in levels
    ]
    assert np.array_equal(sub.data, u.data[np.ix_(levels, *axes)])


@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("layout", [{}, {"half_space": True}, {"stagger": True}])
def test_restrict_selects_the_sub_box_by_coordinates_on_every_layout(n_dim, layout):
    # h = 0.1 takes the sub-extents that are whole multiples of it
    steps = ((0.125, (0.25, 0.375, 0.5)), (0.0625, (0.25, 0.375, 0.5)), (0.1, (0.3, 0.5)))
    for h, extents in steps:
        grid = Grid(n_dim=n_dim, h=h, tau=0.25, time_extent=0.5, **layout)
        u = sample(lambda x, t: sum((i + 1.0) * x[i] for i in range(n_dim)) + t, grid)
        for extent in extents:
            sub = restrict(u, extent, 0.25)
            axes = [
                [j for j, x in enumerate(grid.axis_coords(i)) if abs(x) <= extent + 1e-12]
                for i in range(n_dim)
            ]
            assert sub.grid.spatial_shape == tuple(len(a) for a in axes)
            assert [sub.grid.axis_size(i) for i in range(n_dim)] == [len(a) for a in axes]
            for i in range(n_dim):
                assert np.array_equal(sub.grid.axis_coords(i), grid.axis_coords(i)[axes[i]])
            assert np.array_equal(sub.data, u.data[np.ix_([1, 2], *axes)])


@pytest.mark.parametrize(
    "expr, fragment",
    [
        (lambda x, t: "a", "real numbers"),
        (lambda x, t: np.zeros(5), "elementwise"),
        (lambda x, t: x[0] + 1j, "real numbers"),
        (lambda x, t: [1.0, [2.0]], "real numbers"),
    ],
)
def test_sample_refuses_a_result_that_is_not_real_numbers_of_the_lattice(expr, fragment):
    grid = Grid(n_dim=2, h=0.25, tau=0.5)
    with pytest.raises(InputError, match=fragment):
        sample(expr, grid)


def test_sample_takes_a_stored_field_of_its_grid_as_it_is():
    grid = Grid(n_dim=1, h=0.5, tau=0.5)
    u = sample(lambda x, t: x[0] + t, grid)
    assert sample(u, grid) is u
    with pytest.raises(InputError, match="different grid"):
        sample(u, Grid(n_dim=1, h=0.25, tau=0.5))
    with pytest.raises(InputError, match="callable"):
        sample(5, grid)


def test_sample_rejects_nonfinite():
    grid = Grid(n_dim=1, h=0.5, tau=0.5)
    with pytest.raises(InputError, match="level"):
        sample(lambda x, t: np.where(x[0] == 0.0, np.inf, 1.0), grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grid_function_rejects_nonfinite(bad):
    grid = Grid(n_dim=2, h=0.5, tau=0.5)
    data = np.zeros((grid.n_time_levels,) + grid.spatial_shape)
    data[1, 2, 0] = bad
    with pytest.raises(InputError, match="finite"):
        GridFunction(grid=grid, data=data)
