"""Space-time lattices, grid functions, stencils, and file I/O.

A Grid is a uniform lattice over the box [-R, R]^n x [-T, 0], the
discrete stand-in for the parabolic cylinder B_R x (-T, 0].  Spatial
nodes sit at integer multiples of h, except that the last axis can be
staggered by h/2 so the hyperplane x_n = 0 falls exactly between
nodes (used when a field has a Hessian jump across that plane), or
restricted to x_n >= 0 with the face on nodes (half-space studies).
Time levels run from -T to 0 inclusive, step tau.

GridFunction data is stored time-slowest, spatial axes row-major, and
is frozen after construction, so derived quantities (the sup norm, the
per-column reductions over a long time window) are computed once and
kept.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    _POSITIVE,
    AlignmentError,
    BoundaryProximityError,
    DegenerateCylinderError,
    GridFileError,
    InputError,
    _real_array,
    _real_number,
)
from .linalg import SymMatrix

__all__ = [
    "Grid",
    "GridFunction",
    "CylinderIndex",
    "sample",
    "restrict",
    "cylinder_nodes",
    "parabolic_boundary_nodes",
    "centered_hessian",
    "centered_gradient",
    "backward_time_diff",
    "write_gridfn",
    "read_gridfn",
]

FILE_MAGIC = "PUCCILAB1"

# Time windows whose column reductions one GridFunction keeps for the
# cylinders whose block exceeds one slice; beyond this the oldest is
# dropped, so the memo never holds more than 3 * _WINDOW_SLOTS spatial
# slices, however many levels the field has.
_WINDOW_SLOTS = 32

# Relative slack for the open/closed cylinder inequalities.  Node
# coordinates are exact lattice multiples, so this only has to absorb
# rounding in dist**2 sums, never to decide a genuinely borderline node.
_EDGE_SLACK = 1e-12


def _int_ratio(num: float, den: float, what: str) -> int:
    ratio = num / den
    if not np.isfinite(ratio):
        raise InputError(f"{what} must be a positive integer, got {ratio!r}")
    n = int(round(ratio))
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
        raise InputError(f"{what} must be a positive integer, got {ratio!r}")
    return n


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over [-R, R]^n x [-T, 0].

    half_space restricts the last axis to x_n >= 0 with the face on
    nodes; stagger shifts the last axis by h/2 so x_n = 0 lies between
    nodes.  The two are mutually exclusive.
    """

    n_dim: int
    h: float
    tau: float
    spatial_extent: float = 1.0
    time_extent: float = 1.0
    half_space: bool = False
    stagger: bool = False

    def __post_init__(self):
        n_dim = _real_number(self.n_dim, "n_dim", _POSITIVE, integer=True)
        object.__setattr__(self, "n_dim", n_dim)
        for name in ("h", "tau", "spatial_extent", "time_extent"):
            object.__setattr__(self, name, _real_number(getattr(self, name), name, _POSITIVE))
        for name in ("half_space", "stagger"):
            flag = getattr(self, name)
            if not isinstance(flag, (bool, np.bool_)):
                raise InputError(f"{name} must be true or false, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
        if self.half_space and self.stagger:
            raise InputError("half_space and stagger both place x_n = 0; pick one")
        _int_ratio(self.spatial_extent, self.h, "spatial_extent / h")
        _int_ratio(self.time_extent, self.tau, "time_extent / tau")

    # -- lattice geometry ------------------------------------------------

    @property
    def steps_per_half_width(self) -> int:
        return int(round(self.spatial_extent / self.h))

    @property
    def n_time_levels(self) -> int:
        return int(round(self.time_extent / self.tau)) + 1

    def axis_size(self, axis: int) -> int:
        n_half = self.steps_per_half_width
        if axis == self.n_dim - 1:
            if self.half_space:
                return n_half + 1
            if self.stagger:
                return 2 * n_half
        return 2 * n_half + 1

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return tuple(self.axis_size(i) for i in range(self.n_dim))

    @property
    def node_count(self) -> int:
        return self.n_time_levels * int(np.prod(self.spatial_shape))

    def __getstate__(self):
        # the cached coordinate arrays are rebuilt on demand, not pickled
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def _axis_coords(self) -> tuple[np.ndarray, ...]:
        n_half = self.steps_per_half_width
        axes = []
        for axis in range(self.n_dim):
            last = axis == self.n_dim - 1
            if last and self.half_space:
                coords = np.arange(0, n_half + 1) * self.h
            elif last and self.stagger:
                coords = np.arange(-n_half, n_half) * self.h + 0.5 * self.h
            else:
                coords = np.arange(-n_half, n_half + 1) * self.h
            coords.flags.writeable = False
            axes.append(coords)
        return tuple(axes)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Coordinates along one spatial axis, exact lattice multiples.

        Built once per grid and read-only, like time_values.
        """
        return self._axis_coords[axis]

    def coordinate_mesh(self) -> list[np.ndarray]:
        """Sparse spatial meshgrid, broadcastable to spatial_shape."""
        axes = [self.axis_coords(i) for i in range(self.n_dim)]
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))

    def time_value(self, level: int) -> float:
        return (level - (self.n_time_levels - 1)) * self.tau

    @cached_property
    def time_values(self) -> np.ndarray:
        m = self.n_time_levels - 1
        times = (np.arange(m + 1) - m) * self.tau
        times.flags.writeable = False
        return times

    def time_level_of(self, t: float) -> int:
        """Level index of a time value that must lie on the lattice."""
        m = (_real_number(t, "time") + self.time_extent) / self.tau
        level = int(round(m))
        if abs(m - level) > 1e-9 or level < 0 or level >= self.n_time_levels:
            raise AlignmentError(f"time {t!r} is not a lattice level of {self}")
        return level


@dataclass(frozen=True)
class GridFunction:
    """Real values on every node of a grid, frozen after construction."""

    grid: Grid
    data: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        a = self._freeze()
        # min and max are non-finite exactly when some value is (NaN
        # propagates), and need no temporary the size of the field; they
        # are the sup norm, so it is kept
        lo, hi = a.min(), a.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InputError("grid function values must be finite")
        self._memo["sup_norm"] = _sup_norm(lo, hi)

    def _freeze(self) -> np.ndarray:
        """Check the layout and store the data C-contiguous and read-only."""
        expected = (self.grid.n_time_levels,) + self.grid.spatial_shape
        a = np.asarray(self.data, dtype=float)
        if a.shape != expected:
            raise InputError(
                f"data shape {a.shape} does not match grid layout {expected}"
            )
        a = np.ascontiguousarray(a)
        a.flags.writeable = False
        object.__setattr__(self, "data", a)
        return a

    @classmethod
    def _of_finite_levels(cls, grid: Grid, data: np.ndarray) -> "GridFunction":
        """The constructor without its finiteness scan of the whole field.

        Only for data whose every level the caller has already checked
        finite: the march and sample() check level by level.  The sup
        norm is then computed on first use.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_lock", threading.Lock())
        self._freeze()
        return self

    def __reduce__(self):
        # the lock cannot be pickled or copied; a copy is built and checked
        # afresh, so its memo holds the sup norm of its scan and no window
        return (GridFunction, (self.grid, self.data))

    @property
    def sup_norm(self) -> float:
        """max |u| over every node, kept from construction or computed on first use."""
        with self._lock:
            if "sup_norm" not in self._memo:
                self._memo["sup_norm"] = _sup_norm(self.data.min(), self.data.max())
            return self._memo["sup_norm"]

    def window_reductions(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean, min and max over the time levels lo..hi inclusive, per node.

        Each is one read-only spatial slice.  They are computed once per
        window and kept; at most _WINDOW_SLOTS windows stay (the oldest
        is dropped first), so the memo holds at most 3 * _WINDOW_SLOTS
        slices and never O(levels x nodes).  Only cylinders whose block
        exceeds one slice read them; a smaller one runs the same kernel
        on its box, so the p-sweep benchmark's fits keep no window.
        """
        key = (int(lo), int(hi))
        if not 0 <= key[0] <= key[1] < self.grid.n_time_levels:
            raise InputError(
                f"time window {key} outside levels 0..{self.grid.n_time_levels - 1}"
            )
        with self._lock:
            hit = self._memo.get(key)
            if hit is None:
                hit = _window_reductions(self.data[key[0] : key[1] + 1])
                windows = [k for k in self._memo if isinstance(k, tuple)]
                if len(windows) >= _WINDOW_SLOTS:
                    del self._memo[windows[0]]
                self._memo[key] = hit
            return hit


def _sup_norm(lo, hi) -> float:
    return float(max(0.0, hi, -lo))


def _window_reductions(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mean, min and max along time of a whole-lattice or a box's level window."""
    out = (_level_sum(block) / block.shape[0], block.min(axis=0), block.max(axis=0))
    for arr in out:
        arr.flags.writeable = False
    return out


def _level_sum(block: np.ndarray) -> np.ndarray:
    """Sum over the level axis in pairwise order, node by node.

    The only sum of the fit path.  It replays, with whole-slice
    additions, the pairwise order numpy uses along a contiguous axis
    (eight running partial sums, halving above 128 terms); numpy itself
    accumulates level after level when the summed axis is the slowest,
    as it is here.  So a mean keeps the error bound of pairwise
    summation, O(log levels) ulps instead of O(levels), and the order
    depends on the level count alone, never on the block's layout.
    """
    n = block.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _level_sum(block[:half]) + _level_sum(block[half:])
    if n < 8:
        total = np.zeros(block.shape[1:])
        for level in block:
            total += level
        return total
    lanes = block[:8] + 0.0  # numpy starts from its identity, +0.0
    whole = n - n % 8
    for i in range(8, whole, 8):
        lanes += block[i : i + 8]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    )
    for level in block[whole:]:
        total += level
    return total


def sample(expr, grid: Grid) -> GridFunction:
    """Evaluate expr(x, t) at every node; x is a broadcastable mesh tuple."""
    mesh = grid.coordinate_mesh()
    shape = grid.spatial_shape
    out = np.empty((grid.n_time_levels,) + shape)
    for m in range(grid.n_time_levels):
        vals = np.asarray(expr(mesh, grid.time_value(m)), dtype=float)
        out[m] = np.broadcast_to(vals, shape)
        if not np.all(np.isfinite(out[m])):
            bad = np.argwhere(~np.isfinite(out[m]))[0]
            raise InputError(
                f"field evaluated non-finite at level {m}, spatial index "
                f"{tuple(int(b) for b in bad)}"
            )
    return GridFunction._of_finite_levels(grid, out)


def restrict(
    u: GridFunction, spatial_extent: float, time_extent: float | None = None
) -> GridFunction:
    """Concentric sub-box of a grid function, same steps, node-to-node.

    The time window keeps the latest levels (it always ends at t = 0).
    Useful for studying a marched field away from the Dirichlet shell,
    where the scheme's stencils mix solved and copied values.
    """
    grid = u.grid
    spatial_extent = _real_number(spatial_extent, "sub-box extent", _POSITIVE)
    if time_extent is None:
        time_extent = grid.time_extent
    time_extent = _real_number(time_extent, "sub-box depth", _POSITIVE)
    if spatial_extent > grid.spatial_extent + 1e-12:
        raise InputError(
            f"sub-box extent {spatial_extent} exceeds the grid's {grid.spatial_extent}"
        )
    if time_extent > grid.time_extent + 1e-12:
        raise InputError(
            f"sub-box depth {time_extent} exceeds the grid's {grid.time_extent}"
        )
    sub = replace(grid, spatial_extent=spatial_extent, time_extent=time_extent)
    k = sub.steps_per_half_width
    center = grid.steps_per_half_width
    slices = [slice(grid.n_time_levels - sub.n_time_levels, grid.n_time_levels)]
    for axis in range(grid.n_dim):
        last = axis == grid.n_dim - 1
        if last and grid.half_space:
            slices.append(slice(0, k + 1))
        elif last and grid.stagger:
            slices.append(slice(center - k, center + k))
        else:
            slices.append(slice(center - k, center + k + 1))
    return GridFunction(grid=sub, data=u.data[tuple(slices)])


# ---------------------------------------------------------------------------
# Cylinders


@dataclass(frozen=True)
class CylinderIndex:
    """Discrete Q_r(center): |x - x0| < r strictly, t0 - r^2 < t <= t0.

    A cylinder lives on its bounding box: box holds one index range per
    spatial axis (the nodes within r of x0 along it, one node of margin,
    clipped to the lattice), box_mask the ball's nodes inside the box,
    and axis_offsets the offsets x_i - x0_i along each axis of the box.
    Columns come in row-major order inside the box, which is the
    lattice's row-major order restricted to it, so no method here reads
    or builds an array the size of the lattice; spatial_mask embeds
    box_mask in the lattice for callers that want the whole picture.
    The time levels of the window are listed; node_list materializes
    explicit (level, multi-index) pairs on demand.  contained records
    whether the continuum cylinder fits inside the lattice box, which
    the decay regressions use to drop clipped scales.
    """

    grid: Grid
    center_x: np.ndarray
    center_t: float
    radius: float
    box: tuple[slice, ...]
    box_mask: np.ndarray
    axis_offsets: tuple[np.ndarray, ...]
    time_levels: np.ndarray
    contained: bool

    @property
    def spatial_mask(self) -> np.ndarray:
        """The cylinder's columns as a boolean mask over the whole lattice."""
        mask = np.zeros(self.grid.spatial_shape, dtype=bool)
        mask[self.box] = self.box_mask
        return mask

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.box_mask)) * len(self.time_levels)

    @property
    def node_list(self) -> list[tuple[int, tuple[int, ...]]]:
        where = np.argwhere(self.box_mask) + [b.start for b in self.box]
        return [
            (int(m), tuple(int(i) for i in idx))
            for m in self.time_levels
            for idx in where
        ]

    def spatial_offsets(self) -> np.ndarray:
        """Offsets x - x0 of the cylinder's spatial columns, shape (k, n)."""
        where = self.box_mask.nonzero()
        cols = np.empty((where[0].size, self.grid.n_dim))
        for i, (offsets, idx) in enumerate(zip(self.axis_offsets, where)):
            cols[:, i] = offsets[idx]
        return cols

    def time_offsets(self) -> np.ndarray:
        """Offsets t - t0 of the listed time levels."""
        return self.grid.time_values[self.time_levels] - self.center_t

    @property
    def window(self) -> tuple[int, int]:
        """First and last time level; the window is always contiguous."""
        return int(self.time_levels[0]), int(self.time_levels[-1])

    def values(self, u: GridFunction) -> np.ndarray:
        """Values of u on the cylinder, shape (levels, columns)."""
        if u.grid != self.grid:
            raise InputError("grid function lives on a different grid")
        lo, hi = self.window
        return u.data[(slice(lo, hi + 1),) + self.box][:, self.box_mask]

    def column_reductions(self, u: GridFunction) -> tuple[np.ndarray, ...]:
        """Per-column mean, min and max of u over the window, each (columns,).

        One kernel, _window_reductions, serves both sides and nothing is
        copied.  A (levels x columns) block no larger than one lattice
        slice reduces a strided view of its box, at a cost that follows
        the cylinder; a larger block (a clipped scale's whole history,
        which many centers share) takes its box of u's memoized
        whole-lattice reductions.  The kernel works node by node, so
        both sides give the same bits.
        """
        if u.grid != self.grid:
            raise InputError("grid function lives on a different grid")
        lo, hi = self.window
        if self.node_count <= math.prod(self.grid.spatial_shape):
            reductions = _window_reductions(u.data[(slice(lo, hi + 1),) + self.box])
        else:
            reductions = tuple(r[self.box] for r in u.window_reductions(lo, hi))
        return tuple(r[self.box_mask] for r in reductions)


def _ball_mask(
    grid: Grid, r: float, closed: bool = False, box=None, offsets=None
) -> np.ndarray:
    """The lattice nodes of the open ball |x - x0| < r.

    box is one index range per axis and offsets the x_i - x0_i along
    each axis of it; by default the box is the whole lattice and x0 the
    origin.  The mask covers the box only.  On half-space grids the
    face x_n = 0 is boundary, so only x_n > 0 nodes belong.  closed
    gives the closed ball |x - x0| <= r, face included.  The slack only
    absorbs rounding in the dist**2 sums.
    """
    if box is None:
        offsets = [grid.axis_coords(i) for i in range(grid.n_dim)]
    # each axis's squares, shaped to broadcast along its own dimension
    squares = [o**2 for o in offsets]
    dist2 = squares[0].reshape((-1,) + (1,) * (grid.n_dim - 1))
    for i in range(1, grid.n_dim):
        dist2 = dist2 + squares[i].reshape((-1,) + (1,) * (grid.n_dim - 1 - i))
    slack = _EDGE_SLACK * r * r
    if closed:
        return dist2 <= r * r + slack
    mask = dist2 < r * r - slack
    if grid.half_space and (box is None or box[-1].start == 0):
        mask[..., 0] = False  # the face, the one node with x_n = 0
    return mask


def _cylinder_center(grid: Grid, center) -> tuple[np.ndarray, float]:
    """center = (x0, t0) checked against the grid: a copy of x0, and t0."""
    try:
        x0, t0 = center
    except (TypeError, ValueError):
        raise InputError(f"a center is an (x0, t0) pair, got {center!r}") from None
    x0 = np.array(_real_array(x0, "cylinder center"), ndmin=1)  # a copy: it is frozen later
    t0 = _real_number(t0, "cylinder time")
    if x0.shape != (grid.n_dim,):
        raise InputError(f"center has {x0.shape} coordinates, grid needs {grid.n_dim}")
    if not all(map(math.isfinite, x0.tolist())):
        raise InputError("cylinder center must be finite")
    return x0, t0


def _reach(grid: Grid, xs: list, t0: float, r: float) -> float:
    """r, clamped to twice the distance to the farthest node and level.

    Every radius past that reach gives the same cylinder, so the tests
    run at most at it: r * r and its slack then stay finite however
    large r is.
    """
    far = math.hypot(*(grid.spatial_extent + abs(c) for c in xs))
    return min(r, 2.0 * math.hypot(far, math.sqrt(abs(t0) + grid.time_extent)) + 1.0)


def _contained(grid: Grid, xs: list, t0: float, r: float) -> bool:
    """Whether the continuum cylinder Q_r(xs, t0) fits inside the lattice box.

    The one definition of a clipped scale: cylinder_nodes records it,
    and the decay sequences test it before building a cylinder.
    """
    reach = _reach(grid, xs, t0, r)
    extent, slack = grid.spatial_extent, _EDGE_SLACK
    if grid.half_space:
        # Face-centered cylinders are the intended half cylinders and
        # count as contained; for interior centers the face clips the
        # ball like any other boundary.
        on_face = abs(xs[-1]) < 0.25 * grid.h
        last_lo_ok = on_face or xs[-1] - reach >= -slack
    else:
        last_lo_ok = xs[-1] - reach >= -extent - slack
    return (
        all(c + reach <= extent + slack for c in xs)
        and all(c - reach >= -extent - slack for c in xs[:-1])
        and last_lo_ok
        and t0 - reach * reach >= -grid.time_extent - slack
        and t0 <= slack
    )


def cylinder_nodes(grid: Grid, center, r: float) -> CylinderIndex:
    """Nodes of the discrete parabolic cylinder Q_r(center).

    center is (x0, t0) with x0 an n-vector and t0 a lattice-range time.
    Space is open (|x - x0| < r), time half-open (t0 - r^2 < t <= t0).
    On half-space grids only x_n > 0 nodes belong to the cylinder; the
    face is boundary.  A cylinder whose only spatial column sits at the
    center (or that holds no node at all) carries no usable spatial
    information and raises.  The work is proportional to the nodes of
    the cylinder's bounding box, not of the lattice.
    """
    x0, t0 = _cylinder_center(grid, center)
    r = _real_number(r, "cylinder radius", _POSITIVE)
    xs = x0.tolist()
    reach = _reach(grid, xs, t0, r)

    box, offsets = [], []
    for i, c in enumerate(xs):
        coords = grid.axis_coords(i)
        lo = max(int(coords.searchsorted(c - reach)) - 1, 0)
        hi = min(int(coords.searchsorted(c + reach, side="right")) + 1, coords.size)
        box.append(slice(lo, hi))
        offsets.append(coords[lo:hi] - c)
    box = tuple(box)
    mask = _ball_mask(grid, reach, box=box, offsets=offsets)
    times = grid.time_values
    t_slack = _EDGE_SLACK * (1.0 + abs(t0) + reach * reach)
    in_window = (times > t0 - reach * reach + t_slack) & (times <= t0 + t_slack)
    levels = np.nonzero(in_window)[0]

    n_columns = int(np.count_nonzero(mask))
    spatially_trivial = False
    if n_columns == 1:
        # A single column is still usable when it sits away from the
        # center (half-space cylinders at the face in one dimension);
        # a lone column at the center carries no spatial information.
        col = np.array([o[w[0]] for o, w in zip(offsets, mask.nonzero())])
        spatially_trivial = bool(np.linalg.norm(col) < 0.25 * grid.h)
    if n_columns == 0 or spatially_trivial or len(levels) == 0:
        raise DegenerateCylinderError(
            f"Q_{r}(x0={xs}, t0={t0}) holds {n_columns} spatial "
            f"column(s) and {len(levels)} time level(s) on h={grid.h}, "
            f"tau={grid.tau}; too small to use"
        )

    for arr in (mask, levels, x0, *offsets):
        arr.flags.writeable = False
    return CylinderIndex(
        grid=grid,
        center_x=x0,
        center_t=t0,
        radius=r,
        box=box,
        box_mask=mask,
        axis_offsets=tuple(offsets),
        time_levels=levels,
        contained=_contained(grid, xs, t0, r),
    )


def parabolic_boundary_nodes(grid: Grid, r: float) -> list[tuple[int, tuple[int, ...]]]:
    """Nodes of the discrete parabolic boundary of Q_r centered at (0, 0).

    The set is the bottom slice (t = -r^2, all columns of the closed
    ball) plus the lateral shell (nodes outside the open ball that
    touch it through a stencil step, at every level -r^2 <= t < 0).
    The interior of the top slice is excluded.  Half-space grids add
    the face x_n = 0 inside the ball, at every level including the top.
    """
    r = _real_number(r, "radius", _POSITIVE)
    steps = r / grid.h
    if abs(steps - round(steps)) > 1e-9:
        raise InputError(f"radius {r} is not a multiple of the spatial step {grid.h}")
    try:
        bottom_level = grid.time_level_of(-r * r)
    except AlignmentError as exc:
        raise AlignmentError(
            f"cylinder depth r^2 = {r * r} does not land on a time level"
        ) from exc

    interior = _ball_mask(grid, r)
    closed_ball = _ball_mask(grid, r, closed=True)

    # Lateral shell: outside the open ball but adjacent (Chebyshev
    # distance one, matching the stencil footprint) to an interior node.
    near_interior = np.zeros(grid.spatial_shape, dtype=bool)
    pad = np.pad(interior, 1, mode="constant")
    for offsets in np.ndindex(*(3,) * grid.n_dim):
        sl = tuple(slice(o, o + s) for o, s in zip(offsets, grid.spatial_shape))
        near_interior |= pad[sl]
    shell = closed_ball & ~interior & near_interior

    top = grid.n_time_levels - 1
    nodes: list[tuple[int, tuple[int, ...]]] = []
    for idx in np.argwhere(closed_ball):
        nodes.append((bottom_level, tuple(int(i) for i in idx)))
    for m in range(bottom_level + 1, top):
        for idx in np.argwhere(shell):
            nodes.append((m, tuple(int(i) for i in idx)))
    if grid.half_space:
        face_in_ball = closed_ball & (grid.coordinate_mesh()[grid.n_dim - 1] == 0.0)
        for m in range(bottom_level + 1, top + 1):
            for idx in np.argwhere(face_in_ball):
                nodes.append((m, tuple(int(i) for i in idx)))
    return nodes


# ---------------------------------------------------------------------------
# Stencils


def _check_stencil_room(u: GridFunction, node) -> tuple[int, tuple[int, ...]]:
    level, idx = node
    level = int(level)
    idx = tuple(int(i) for i in idx)
    grid = u.grid
    if len(idx) != grid.n_dim:
        raise InputError(f"node index {idx} does not match dimension {grid.n_dim}")
    if level < 1 or level >= grid.n_time_levels:
        raise BoundaryProximityError(
            f"level {level} has no backward neighbor on {grid.n_time_levels} levels"
        )
    for i, a in enumerate(idx):
        if a < 1 or a > grid.axis_size(i) - 2:
            raise BoundaryProximityError(
                f"node {idx} lacks stencil room on axis {i} "
                f"(size {grid.axis_size(i)})"
            )
    return level, idx


def _neighbourhood(u: GridFunction, node, level_shift: int = 0) -> np.ndarray:
    """The 3^n block of lattice values around a node, copied C-contiguous."""
    level, idx = _check_stencil_room(u, node)
    block = u.data[level + level_shift][tuple(slice(i - 1, i + 2) for i in idx)]
    return np.ascontiguousarray(block)  # the slice kernels read it flat


# The three stencils below run the slice kernels of operators.py on the
# node's neighbourhood, so there is one implementation of each
# difference.  operators imports this module, hence the local imports.


def centered_hessian(u: GridFunction, node) -> SymMatrix:
    """Second-order centered Hessian at one node (four-point cross off-diagonal)."""
    from .operators import _hessian_stack, _slice_cross_diffs, _slice_diag_diffs

    block, h, n = _neighbourhood(u, node), u.grid.h, u.grid.n_dim
    hess = _hessian_stack(_slice_diag_diffs(block, h), _slice_cross_diffs(block, h))
    return SymMatrix(hess.reshape(n, n))


def centered_gradient(u: GridFunction, node) -> np.ndarray:
    """Second-order centered first differences at one node."""
    from .operators import _slice_gradient

    return np.ravel(_slice_gradient(_neighbourhood(u, node), u.grid.h))


def backward_time_diff(u: GridFunction, node) -> float:
    """First-order backward difference in time at one node."""
    from .operators import _slice_time_diff

    now, before = _neighbourhood(u, node), _neighbourhood(u, node, -1)
    return _slice_time_diff(now, before, u.grid.tau).item()


# ---------------------------------------------------------------------------
# File format: ASCII magic line, JSON metadata line, raw little-endian
# float64 payload, time-major row-major.


def write_gridfn(u: GridFunction, path) -> None:
    meta = {**asdict(u.grid), "endianness": "little", "index_order": "time-major row-major"}
    payload = np.ascontiguousarray(u.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(FILE_MAGIC.encode("ascii") + b"\n")
        fh.write(json.dumps(meta, sort_keys=True).encode("ascii") + b"\n")
        fh.write(payload)


def read_gridfn(path) -> GridFunction:
    raw = Path(path).read_bytes()
    first = raw.find(b"\n")
    if first < 0 or raw[:first].decode("ascii", errors="replace") != FILE_MAGIC:
        raise GridFileError(f"{path}: bad magic, expected {FILE_MAGIC!r}")
    second = raw.find(b"\n", first + 1)
    if second < 0:
        raise GridFileError(f"{path}: metadata line missing")
    try:
        meta = json.loads(raw[first + 1 : second].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GridFileError(f"{path}: metadata is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise GridFileError(f"{path}: metadata is not a JSON object: {meta!r}")
    if "endianness" not in meta:
        raise GridFileError(f"{path}: endianness tag absent")
    if meta["endianness"] != "little":
        raise GridFileError(f"{path}: unsupported endianness {meta['endianness']!r}")
    if meta.get("index_order") != "time-major row-major":
        raise GridFileError(f"{path}: unsupported index order {meta.get('index_order')!r}")
    try:
        grid = Grid(
            n_dim=meta["n_dim"],
            h=meta["h"],
            tau=meta["tau"],
            spatial_extent=meta["spatial_extent"],
            time_extent=meta["time_extent"],
            half_space=meta["half_space"],
            stagger=meta.get("stagger", False),
        )
    except (KeyError, InputError) as exc:
        raise GridFileError(f"{path}: bad grid metadata: {exc}") from exc
    count = grid.node_count
    payload = raw[second + 1 :]
    if len(payload) < 8 * count:
        raise GridFileError(
            f"{path}: truncated payload, metadata claims {count} float64 values "
            f"({8 * count} bytes) but {len(payload)} bytes follow"
        )
    if len(payload) > 8 * count:
        raise GridFileError(
            f"{path}: payload longer than the {count} values the metadata claims"
        )
    data = np.frombuffer(payload, dtype="<f8").astype(float, copy=True)
    data = data.reshape((grid.n_time_levels,) + grid.spatial_shape)
    return GridFunction(grid=grid, data=data)
