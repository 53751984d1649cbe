"""The benchmark's own arithmetic: span self times, the tail percentile,
failure counting, the report check, the trace hooks and the check that
traced layer times add up.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t"}


# -- self time of nested spans ------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("experiments.execute", 0.0, 10.0),
        _span("solver.solve", 1.0, 4.0, parent=0),
        _span("linalg.eig", 2.0, 3.0, parent=1),
        _span("regularity.decay", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    layers = tracing.layer_self_times(spans)
    assert layers == {"experiments": 3.0, "solver": 2.0, "linalg": 1.0, "regularity": 4.0}
    assert sum(layers.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("experiments.execute", 0.0, 10.0),
        _span("grid.gather", 1.0, 4.0, parent=0),
        _span("grid.gather", 3.0, 6.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == 5.0


def test_layer_metrics_split_eigen_solves_by_caller():
    spans = [
        _span("experiments.execute", 0.0, 10.0),
        _span("solver.solve", 0.0, 4.0, parent=0),
        _span("linalg.eig", 1.0, 3.0, parent=1),
        _span("operators.membership", 4.0, 8.0, parent=0),
        _span("linalg.eig", 5.0, 6.0, parent=3),
        _span("linalg.eig", 6.0, 6.5, parent=3),
    ]
    spans[1].update(history_bytes=8_000_000, node_updates=1000)
    spans[2]["hessians"] = 100
    spans[3].update(slices=2, nodes=500)
    spans[4]["hessians"] = 10
    spans[5]["hessians"] = 10
    m = tracing.layer_metrics(spans)
    assert m["linalg.march.eig_s"] == 2.0
    assert m["linalg.march.eig_calls"] == 1
    assert m["linalg.membership.eig_s"] == 1.5
    assert m["linalg.membership.hessians"] == 20
    assert m["linalg.membership.ns_per_hessian"] == pytest.approx(1.5 / 20 * 1e9)
    assert m["solver.solve_self_s"] == 2.0
    assert m["solver.history_mb"] == 8.0
    assert m["operators.membership_self_s"] == 2.5
    assert m["operators.ns_per_membership_node"] == pytest.approx(2.5 / 500 * 1e9)
    # a layer the study never entered has zero time and no per-unit ratio
    assert m["grid.gather_s"] == 0.0 and m["regularity.us_per_fit"] is None


# -- tail percentile, failure share --------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(range(10)) is None
    assert stats.tail_percentile(range(11)) == (9, 0.0)
    assert stats.tail_percentile(range(1, 21)) == (50, 10.0)
    assert stats.tail_percentile(list(range(40, 0, -1))) == (75, 30.0)


def test_fail_share_counts_runs_with_any_problem():
    assert stats.fail_share([[], ["exit code 2"], [], ["a", "b"]]) == (4, 2, 0.5)
    assert stats.fail_share([[]]) == (1, 0, 0.0)


# -- report check ----------------------------------------------------------------


def _write_report(tmp_path, workload, seed, edit=None):
    config = make_config(workload, seed)
    report = check.expected_report(workload, config)
    if edit is not None:
        edit(report["result"])
    out = tmp_path / workload
    out.mkdir()
    (out / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with open(out / "report.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            ["true" if c is True else "false" if c is False else c
             for c in row] for row in check.expected_csv(workload, report))
    return config, str(out)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_passes_its_own_check(tmp_path, workload):
    config, out = _write_report(tmp_path, workload, seed=7)
    assert check.check_run(workload, config, out) == []


def test_float_drift_within_tolerance_passes_and_past_it_fails(tmp_path):
    def nudge(scale):
        def edit(result):
            d = result["distances"]
            d[0] = d[0] * (1.0 + scale)
        return edit

    config, out = _write_report(tmp_path, "epscont", 0, nudge(1e-13))
    assert check.check_run("epscont", config, out) == []
    shutil.rmtree(out)
    config, out = _write_report(tmp_path, "epscont", 0, nudge(1e-6))
    assert any("distances[0]" in p for p in check.check_run("epscont", config, out))


def test_psweep_alphas_are_checked_point_by_point(tmp_path):
    def nudge(result):
        result["rows"][0]["alphas"][3] *= 1.0 + 1e-6

    config, out = _write_report(tmp_path, "psweep", 1000, nudge)
    assert any("alphas[3]" in p for p in check.check_run("psweep", config, out))


@pytest.mark.parametrize("seed", [0, 1000, 2001, 99_999])
def test_alpha_table_covers_every_point_the_seed_can_place(seed):
    config = make_config("psweep", seed)
    report = check.expected_report("psweep", config)
    row = report["result"]["rows"][0]
    assert None not in row["alphas"] and len(row["alphas"]) == 10
    # the table holds exponents the fits produced, not the clamp value 1
    assert all(0.9 < a < 1.0 for a in row["alphas"])
    assert row["alpha_min"] == min(row["alphas"]) and row["meets_target"] is True
    box = {tuple(p) for p in check.box_points(config)}
    assert {tuple(x) for x, _ in report["result"]["points"]} <= box


def test_seed_zero_reference_agrees_with_the_alpha_table():
    with open(os.path.join(check.REFERENCE_DIR, "psweep.json"), encoding="utf-8") as fh:
        stored = json.load(fh)
    assert check.compare(stored, check.expected_report("psweep", make_config("psweep", 0))) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_field_digests_are_checked(workload):
    with open(os.path.join(check.REFERENCE_DIR, f"{workload}.fields.json"),
              encoding="utf-8") as fh:
        digests = json.load(fh)
    spans = [_span("experiments.execute", 0.0, 1.0)] + [
        dict(_span("solver.solve", 0.0, 1.0, parent=0), **d) for d in digests]
    assert check.check_fields(workload, spans) == []
    spans[-1]["field_sum"] *= 1.0 + 1e-6
    assert any("field_sum" in p for p in check.check_fields(workload, spans))
    assert check.check_fields(workload, spans[:-1]) != []


def test_field_digest_reads_the_marched_field():
    import numpy as np

    field = types.SimpleNamespace(data=np.array([[0.5, -3.0], [1.0, 2.0]]))
    (digest,) = {attrs for _, _, _, attrs in tracing.FIELD_HOOKS if attrs is not None}
    assert digest((), field) == {"field_sum": 0.5, "field_sup": 3.0}


def _flip_verdict(result):
    result["rows"][0]["verdict"] = "fail"


def _miss_target(result):
    result["rows"][0]["meets_target"] = False


def _break_cauchy(result):
    result["cauchy"] = False


@pytest.mark.parametrize("workload, edit, field", [
    ("pucci3d", _flip_verdict, "verdict"),
    ("psweep", _miss_target, "meets_target"),
    ("epscont", _break_cauchy, "cauchy"),
])
def test_flipped_result_fails(tmp_path, workload, edit, field):
    config, out = _write_report(tmp_path, workload, 0, edit)
    problems = check.check_run(workload, config, out)
    assert any(field in p for p in problems)


def test_exact_types_are_not_coerced():
    assert check.compare(1, 1.0) != []
    assert check.compare(True, 1) != []
    assert check.compare(None, 0.0) != []
    assert check.compare({"a": [1, "x"]}, {"a": [1, "x"]}) == []


def test_missing_report_is_a_problem(tmp_path):
    problems = check.check_run("psweep", make_config("psweep", 0), str(tmp_path))
    assert problems and "unreadable" in problems[0]


@pytest.mark.parametrize("seed", [0, 5, 123])
def test_halton_copy_matches_the_program(seed):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from puccilab.experiments.config import parse_config
    from puccilab.experiments.scenarios import sample_interior_points

    config = make_config("psweep", seed)
    parsed = parse_config(copy.deepcopy(config))
    program = [[list(map(float, x)), t] for x, t in
               sample_interior_points(parsed.grid, config["analysis"]["n_points"], seed)]
    assert check.halton_points(config) == program


# -- trace hooks -------------------------------------------------------------------


def test_install_lists_missing_targets_and_wraps_the_rest(monkeypatch):
    fake = types.ModuleType("perfbench_fake_layer")
    fake.present = lambda x: x + 1

    class Box:
        @property
        def size(self):
            return 3

    fake.Box = Box
    monkeypatch.setitem(sys.modules, "perfbench_fake_layer", fake)
    tracer = tracing.Tracer("t")
    untraced = tracing.install(tracer, hooks=(
        ("perfbench_fake_layer", "present", "fake.present", None),
        ("perfbench_fake_layer", "gone", "fake.gone", None),
        ("perfbench_fake_layer", "Box.size", "fake.size", None),
        ("perfbench_fake_layer", "Gone.size", "fake.size", None),
        ("perfbench_no_such_module", "anything", "fake.any", None),
    ))
    assert untraced == [
        "perfbench_fake_layer.gone",
        "perfbench_fake_layer.Gone.size",
        "perfbench_no_such_module.anything",
    ]
    assert fake.present(1) == 2 and Box().size == 3
    assert [s["name"] for s in tracer.spans] == ["fake.present", "fake.size"]


def test_units_cover_every_layer_metric():
    assert list(tracing.layer_metrics([])) == list(tracing.UNITS)


def test_layer_times_must_add_up_to_the_study():
    nested = [
        _span("experiments.execute", 0.0, 10.0),
        _span("solver.solve", 1.0, 4.0, parent=0),
        _span("linalg.eig", 2.0, 3.0, parent=1),
    ]
    assert tracing.trace_problems(nested) == []
    # a span outside execute() (other than load_config) is counted twice over
    escaped = nested + [_span("grid.gather", 11.0, 12.0)]
    assert "miss the traced study_s by 1 s" in tracing.trace_problems(escaped)[0]
    assert tracing.trace_problems(nested[1:]) == ["0 execute spans, expected 1"]
    setup = [_span("experiments.load_config", -1.0, 0.0)] + [
        dict(s, parent=None if s["parent"] is None else s["parent"] + 1) for s in nested]
    assert tracing.trace_problems(setup) == []


def test_metrics_of_untraced_hooks_are_missing_not_zero():
    spans = [_span("experiments.execute", 0.0, 1.0)]
    m = tracing.layer_metrics(spans, untraced=["puccilab.operators.jacobi_eigh_batch"])
    assert m["linalg.march.eig_s"] is None and m["linalg.membership.hessians"] is None
    assert m["experiments.execute_self_s"] == 1.0


# -- BENCHMARK.json agrees with what run.py prints ---------------------------------


def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perfbench"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.UNITS[metric["name"]]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_peak_rss_is_read_for_this_process_only():
    import numpy as np

    import child

    before = child.peak_rss_kb()
    block = np.ones(8_000_000)  # 64 MB, touched
    assert child.peak_rss_kb() >= before + 60_000
    del block
