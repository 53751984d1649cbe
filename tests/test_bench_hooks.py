"""Every name the benchmark's tracer wraps must still exist.

``perfbench/tracing.py`` wraps functions by module and attribute path.
A target renamed or deleted in ``src/`` does not stop a benchmark run:
it is listed as untraced and its layer metrics silently go missing.
This test resolves every target without installing a wrapper, so such
a rename fails here instead.
"""

import importlib
import os
import sys

import numpy as np
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
)

import tracing  # noqa: E402

_TARGETS = sorted(
    {
        (module_name, attr)
        for hooks in tracing.HOOK_SETS.values()
        for module_name, attr, _span, _attrs in hooks
    }
)


@pytest.mark.parametrize("module_name,attr", _TARGETS, ids=[f"{m}.{a}" for m, a in _TARGETS])
def test_hook_target_exists(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # tracing.install looks the leaf up in the owner's own namespace
    target = vars(owner).get(leaf)
    assert target is not None, f"{module_name}.{attr} is gone"
    assert isinstance(target, property) or callable(target)


def test_continuation_marches_through_the_hooked_solver(monkeypatch):
    # The benchmark's warm-up digests wrap puccilab.solver.solve_dirichlet
    # and read the full history of every field it returns; eps-continuation
    # must keep reaching it once per epsilon, or the warm-up finds no digests.
    from puccilab import solver
    from puccilab.grid import Grid, GridFunction

    grid = Grid(n_dim=2, h=0.125, tau=2.0**-9, time_extent=2.0**-6)
    levels = (grid.n_time_levels,) + grid.spatial_shape
    fields = []
    march = solver.solve_dirichlet

    def recording(prob):
        u = march(prob)
        fields.append(u)
        return u

    monkeypatch.setattr(solver, "solve_dirichlet", recording)
    g = lambda mesh, t: mesh[0] ** 2 + mesh[1] ** 2 + 4.0 * t
    rep = solver.epsilon_continuation(2.5, [0.25, 0.125, 0.0625], lambda m, t: 0.0, g, grid)
    assert len(fields) == 3 and rep.failures == ()
    assert all(isinstance(u, GridFunction) and u.data.shape == levels for u in fields)
    # the report reads exactly the fields the hooked march returned
    want = tuple(float(np.max(np.abs(a.data - b.data))) for a, b in zip(fields, fields[1:]))
    assert rep.distances == want
