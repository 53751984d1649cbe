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
