"""Spans around the calls that cross a layer boundary, and layer metrics.

The child process of a traced run installs wrappers on the names each
caller binds (``scenarios.solve_dirichlet`` is the name the scenario
layer calls, ``solver.solve_dirichlet`` the one the continuation
calls), so nothing under ``src/`` changes.  A wrapper records one span:
name, start, end, parent and run id, plus the sizes it can read off
the arguments or the result.  Spans stay in memory until the child
writes them out at exit.

Every child, traced or not, installs ``CLI_HOOKS``: the spans of
``load_config`` and ``execute`` give the end-to-end set-up and study
times.  A traced child installs all of ``HOOKS``.  The untimed warm-up
child installs ``FIELD_HOOKS``, which record a digest of every marched
field so that the march itself is checked, not only the report.

A span's self time is its duration minus the part of it that its
direct children cover; a layer's self time is the sum over its spans.
The layer of a span is the part of its name before the first dot.
Span times are ``time.monotonic()``, the clock the parent process
reads when it spawns the child (CLOCK_MONOTONIC on Linux, shared by
all processes).
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass

__all__ = [
    "CLI_HOOKS",
    "HOOKS",
    "FIELD_HOOKS",
    "HOOK_SETS",
    "UNITS",
    "GAP_TOL_S",
    "Tracer",
    "install",
    "self_times",
    "layer_metrics",
    "layer_self_times",
    "trace_problems",
]


def _prod(shape) -> int:
    return int(math.prod(int(s) for s in shape))


def _history_attrs(args, result):
    grid = result.grid
    interior = _prod(s - 2 for s in grid.spatial_shape)
    return {
        "history_bytes": int(result.data.nbytes),
        "node_updates": (grid.n_time_levels - 1) * interior,
    }


def _membership_attrs(args, result):
    grid = args[0].grid
    slices = grid.n_time_levels - 1
    return {
        "slices": slices,
        "nodes": slices * _prod(s - 2 for s in grid.spatial_shape),
    }


def _eig_attrs(args, result):
    return {"hessians": _prod(args[0].shape[:-2])}


def _gather_attrs(args, result):
    return {"bytes": int(result.nbytes)}


def _field_digest(args, result):
    data = result.data
    return {"field_sum": float(data.sum()), "field_sup": float(abs(data).max())}


# (module, attribute as the caller binds it, span name, sizes to record)
CLI_HOOKS = (
    ("puccilab.experiments.cli", "load_config", "experiments.load_config", None),
    ("puccilab.experiments.cli", "execute", "experiments.execute", None),
)
HOOKS = CLI_HOOKS + (
    ("puccilab.experiments.scenarios", "write_report", "experiments.write_report", None),
    ("puccilab.experiments.scenarios", "solve_dirichlet", "solver.solve", _history_attrs),
    ("puccilab.experiments.scenarios", "epsilon_continuation", "solver.continuation", None),
    ("puccilab.experiments.scenarios", "class_membership", "operators.membership",
     _membership_attrs),
    ("puccilab.experiments.scenarios", "decay_sequence", "regularity.decay", None),
    ("puccilab.experiments.scenarios", "restrict", "grid.restrict", None),
    ("puccilab.solver", "solve_dirichlet", "solver.solve", _history_attrs),
    ("puccilab.operators", "jacobi_eigh_batch", "linalg.eig", _eig_attrs),
    ("puccilab.regularity", "cylinder_nodes", "grid.cylinder", None),
    ("puccilab.grid", "CylinderIndex.values", "grid.gather", _gather_attrs),
    ("puccilab.grid", "GridFunction.sup_norm", "grid.sup_norm", None),
)
# The digests read every node of the field inside the study, so only the
# untimed warm-up child pays for them.
FIELD_HOOKS = CLI_HOOKS + (
    ("puccilab.experiments.scenarios", "solve_dirichlet", "solver.solve", _field_digest),
    ("puccilab.solver", "solve_dirichlet", "solver.solve", _field_digest),
)
# The hook set of each kind of child, by the name child.py is given.
HOOK_SETS = {"time": CLI_HOOKS, "trace": HOOKS, "fields": FIELD_HOOKS}


class Tracer:
    """In-memory span list; ``parent`` is the index of the enclosing span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {
                "name": name,
                "start": time.monotonic(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer, hooks=HOOKS) -> list[str]:
    """Wrap every hook target that exists; return the ones that do not.

    A target renamed or deleted by a later change is listed as
    untraced instead of stopping the run; the metrics that need its
    spans are then reported as missing.
    """
    untraced = []
    for module_name, attr, span_name, attrs in hooks:
        label = f"{module_name}.{attr}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            untraced.append(label)
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        target = None if owner is None else owner.__dict__.get(leaf)
        if target is None:
            untraced.append(label)
        elif isinstance(target, property):
            setattr(owner, leaf, property(tracer.wrap(span_name, target.fget, attrs)))
        elif callable(target):
            setattr(owner, leaf, tracer.wrap(span_name, target, attrs))
        else:
            untraced.append(label)
    return untraced


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    hi = -math.inf
    for start, end in sorted(intervals):
        if end <= hi:
            continue
        total += end - max(start, hi)
        hi = end
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its direct children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span, kids in zip(spans, children):
        clipped = [
            (max(s, span["start"]), min(e, span["end"])) for s, e in kids if e > s
        ]
        out.append(span["end"] - span["start"] - _covered(clipped))
    return out


@dataclass(frozen=True)
class _Group:
    count: int
    self_s: float
    attrs: dict

    def get(self, key: str) -> int:
        return self.attrs.get(key, 0)


def _ratio(num: float, den: float, scale: float) -> float | None:
    return num / den * scale if den else None


# Unit of every metric layer_metrics returns, in its order.  The
# *_mb sizes are computed from array sizes, not measured traffic.
UNITS = {
    "grid.gather_s": "s",
    "grid.gather_mb": "MB",
    "grid.cylinder_s": "s",
    "grid.cylinders": "count",
    "grid.sup_norm_s": "s",
    "grid.sup_norm_calls": "count",
    "grid.restrict_s": "s",
    "regularity.decay_self_s": "s",
    "regularity.fits": "count",
    "regularity.us_per_fit": "us",
    "solver.solve_self_s": "s",
    "solver.solves": "count",
    "solver.node_updates": "count",
    "solver.ns_per_node_update": "ns",
    "solver.history_mb": "MB",
    "solver.continuation_self_s": "s",
    "operators.membership_self_s": "s",
    "operators.membership_slices": "count",
    "operators.ns_per_membership_node": "ns",
    "experiments.load_config_s": "s",
    "experiments.execute_self_s": "s",
    "experiments.write_report_s": "s",
    "linalg.march.eig_s": "s",
    "linalg.march.eig_calls": "count",
    "linalg.march.hessians": "count",
    "linalg.march.ns_per_hessian": "ns",
    "linalg.membership.eig_s": "s",
    "linalg.membership.eig_calls": "count",
    "linalg.membership.hessians": "count",
    "linalg.membership.ns_per_hessian": "ns",
}

# The layer self times of a traced child must add up to its study time
# within this much; a larger gap means a hook double-counts or a span
# escapes execute(), and the child counts as failed.
GAP_TOL_S = 1e-6


def layer_metrics(spans, untraced=()) -> dict:
    """Per-layer metrics of one traced child, from its spans.

    ``untraced`` lists the hook targets that ``install`` could not find;
    metrics needing their spans come back as None.  Ratios whose base is
    zero (a layer the workload never enters) are None as well.
    """
    selfs = self_times(spans)

    def group(name, parent=None) -> _Group:
        count, total, attrs = 0, 0.0, {}
        for span, own in zip(spans, selfs):
            if span["name"] != name:
                continue
            if parent is not None and (
                span["parent"] is None or spans[span["parent"]]["name"] != parent
            ):
                continue
            count += 1
            total += own
            for key, value in span.items():
                if key not in ("name", "start", "end", "parent", "run"):
                    attrs[key] = attrs.get(key, 0) + value
        return _Group(count, total, attrs)

    gather = group("grid.gather")
    cylinder = group("grid.cylinder")
    sup = group("grid.sup_norm")
    decay = group("regularity.decay")
    fits = group("grid.cylinder", parent="regularity.decay").count
    solve = group("solver.solve")
    member = group("operators.membership")
    # (span names the metrics need, metrics); a metric whose spans were
    # not traced is missing rather than zero
    blocks = [
        (("grid.gather",), {
            "grid.gather_s": gather.self_s,
            "grid.gather_mb": gather.get("bytes") / 1e6,
        }),
        (("grid.cylinder",), {
            "grid.cylinder_s": cylinder.self_s,
            "grid.cylinders": cylinder.count,
        }),
        (("grid.sup_norm",), {
            "grid.sup_norm_s": sup.self_s,
            "grid.sup_norm_calls": sup.count,
        }),
        (("grid.restrict",), {"grid.restrict_s": group("grid.restrict").self_s}),
        (("regularity.decay",), {"regularity.decay_self_s": decay.self_s}),
        (("regularity.decay", "grid.cylinder"), {
            "regularity.fits": fits,
            "regularity.us_per_fit": _ratio(decay.self_s, fits, 1e6),
        }),
        (("solver.solve",), {
            "solver.solve_self_s": solve.self_s,
            "solver.solves": solve.count,
            "solver.node_updates": solve.get("node_updates"),
            "solver.ns_per_node_update": _ratio(solve.self_s, solve.get("node_updates"), 1e9),
            "solver.history_mb": solve.get("history_bytes") / 1e6,
        }),
        (("solver.continuation",), {
            "solver.continuation_self_s": group("solver.continuation").self_s,
        }),
        (("operators.membership",), {
            "operators.membership_self_s": member.self_s,
            "operators.membership_slices": member.get("slices"),
            "operators.ns_per_membership_node": _ratio(member.self_s, member.get("nodes"), 1e9),
        }),
        (("experiments.load_config",), {
            "experiments.load_config_s": group("experiments.load_config").self_s,
        }),
        (("experiments.execute",), {
            "experiments.execute_self_s": group("experiments.execute").self_s,
        }),
        (("experiments.write_report",), {
            "experiments.write_report_s": group("experiments.write_report").self_s,
        }),
    ]
    for caller, span in (("march", "solver.solve"), ("membership", "operators.membership")):
        eig = group("linalg.eig", parent=span)
        blocks.append((("linalg.eig", span), {
            f"linalg.{caller}.eig_s": eig.self_s,
            f"linalg.{caller}.eig_calls": eig.count,
            f"linalg.{caller}.hessians": eig.get("hessians"),
            f"linalg.{caller}.ns_per_hessian": _ratio(eig.self_s, eig.get("hessians"), 1e9),
        }))
    missing = {name for mod, attr, name, _ in HOOKS if f"{mod}.{attr}" in untraced}
    out = {}
    for needs, metrics in blocks:
        lost = bool(missing.intersection(needs))
        out.update({name: None if lost else value for name, value in metrics.items()})
    return out


def layer_self_times(spans) -> dict:
    """Self time per layer inside the study (the load_config span is set-up)."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span["name"] == "experiments.load_config":
            continue
        layer = span["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def trace_problems(spans, tol: float = GAP_TOL_S) -> list[str]:
    """Why the layer self times of one traced child do not add up to its study."""
    roots = [s for s in spans if s["name"] == "experiments.execute"]
    if len(roots) != 1:
        return [f"{len(roots)} execute spans, expected 1"]
    gap = sum(layer_self_times(spans).values()) - (roots[0]["end"] - roots[0]["start"])
    if abs(gap) > tol:
        return [f"layer self times miss the traced study_s by {gap:.3g} s"]
    return []
