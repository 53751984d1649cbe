"""Lattice, cylinder enumeration, stencils, and the file format."""

import numpy as np
import pytest

from puccilab.errors import (
    AlignmentError,
    BoundaryProximityError,
    DegenerateCylinderError,
    GridFileError,
    InputError,
)
from puccilab.grid import (
    Grid,
    GridFunction,
    backward_time_diff,
    centered_gradient,
    centered_hessian,
    cylinder_nodes,
    parabolic_boundary_nodes,
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


@pytest.mark.parametrize(
    "kwargs,center,r",
    [
        (dict(n_dim=2, h=0.25, tau=0.125), (np.zeros(2), 0.0), 0.8),
        (dict(n_dim=2, h=0.25, tau=0.125), (np.array([0.25, -0.5]), -0.125), 0.6),
        (dict(n_dim=1, h=0.125, tau=0.0625, stagger=True), (np.zeros(1), 0.0), 0.5),
        (dict(n_dim=2, h=0.25, tau=0.125, half_space=True), (np.zeros(2), 0.0), 0.7),
        (dict(n_dim=3, h=0.5, tau=0.25), (np.zeros(3), 0.0), 1.0),
    ],
)
def test_cylinder_matches_brute_force(kwargs, center, r):
    grid = Grid(**kwargs)
    cyl = cylinder_nodes(grid, center, r)
    assert sorted(cyl.node_list) == sorted(brute_force_cylinder(grid, center[0], center[1], r))


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


def test_parabolic_boundary_small_grid():
    grid = Grid(n_dim=1, h=0.25, tau=0.0625)
    nodes = parabolic_boundary_nodes(grid, 0.5)
    nodes = set(nodes)
    bottom_level = grid.time_level_of(-0.25)
    top_level = grid.time_level_of(0.0)
    # bottom slice: closed ball |x| <= 0.5 -> indices 2,3,4,5,6 of 9
    for i in (2, 3, 4, 5, 6):
        assert (bottom_level, (i,)) in nodes
    # lateral: |x| = 0.5 columns at strictly later levels, top excluded for
    # the interior but included for the shell
    for m in range(bottom_level + 1, top_level):
        assert (m, (2,)) in nodes and (m, (6,)) in nodes
        assert (m, (4,)) not in nodes
    assert (top_level, (4,)) not in nodes
    with pytest.raises(InputError):
        parabolic_boundary_nodes(grid, 0.3)


def test_parabolic_boundary_half_space_face():
    grid = Grid(n_dim=2, h=0.25, tau=0.0625, half_space=True)
    nodes = set(parabolic_boundary_nodes(grid, 0.5))
    top = grid.time_level_of(0.0)
    # the face column x_n = 0 belongs to the boundary at every level
    # of the window, top included
    assert (top, (4, 0)) in nodes


def test_stencils_exact_on_polynomials():
    grid = Grid(n_dim=2, h=0.125, tau=0.0625)
    u = sample(lambda x, t: 2.0 * x[0] ** 2 - x[0] * x[1] + 3.0 * x[1] ** 2 + 0.5 * t, grid)
    node = (2, (4, 5))
    hess = centered_hessian(u, node).entries
    assert np.allclose(hess, [[4.0, -1.0], [-1.0, 6.0]], atol=1e-9)
    assert abs(backward_time_diff(u, node) - 0.5) < 1e-9
    v = sample(lambda x, t: 3.0 * x[0] - 2.0 * x[1] + 1.0, grid)
    assert np.allclose(centered_gradient(v, node), [3.0, -2.0], atol=1e-10)


def test_stencil_boundary_proximity():
    grid = Grid(n_dim=2, h=0.25, tau=0.25)
    u = sample(lambda x, t: x[0] * 0.0, grid)
    with pytest.raises(BoundaryProximityError):
        centered_hessian(u, (1, (0, 4)))
    with pytest.raises(BoundaryProximityError):
        backward_time_diff(u, (0, (4, 4)))


def test_file_round_trip_bit_exact(tmp_path):
    grid = Grid(n_dim=2, h=0.25, tau=0.125, half_space=True)
    data = np.random.randn(grid.n_time_levels, *grid.spatial_shape)
    u = GridFunction(grid=grid, data=data)
    path = tmp_path / "field.puc"
    write_gridfn(u, path)
    back = read_gridfn(path)
    assert back.grid == grid
    assert back.data.tobytes() == u.data.tobytes()


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


def test_time_level_alignment():
    grid = Grid(n_dim=1, h=0.5, tau=0.25)
    assert grid.time_level_of(-1.0) == 0
    assert grid.time_level_of(0.0) == grid.n_time_levels - 1
    with pytest.raises(AlignmentError):
        grid.time_level_of(-0.3)
