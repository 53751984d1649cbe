"""Check a written report against the reference kept with the benchmark.

Strings, booleans, nulls and integers must match exactly; floats must
agree within ``RTOL`` relative plus ``ATOL`` absolute, because a
reordered reduction (a planned change to the decay fits) is expected
to move sup errors by about 1e-14.  The reference files under
``reference/`` were written by ``make_reference.py`` at seed 0.  The
seed-dependent entries are rebuilt for the run's seed:
``provenance.seed``; the psweep ``points``, by an independent copy of
the Halton placement; and the psweep exponents, looked up point by
point in ``reference/psweep_alphas.json``, which holds the exponent of
every lattice point the placement can pick.  Invariants that hold for
any seed are checked as well.

The report alone cannot show every error of the march: the pucci3d
exponent is clamped to 1 and its verdict is a boolean.  So the warm-up
study of every run also digests each marched field (its sum and sup
over all nodes), and ``check_fields`` compares the digests with
``reference/<workload>.fields.json``, which no seed moves.
"""

from __future__ import annotations

import csv
import json
import math
import os

__all__ = [
    "RTOL",
    "ATOL",
    "compare",
    "expected_report",
    "expected_csv",
    "check_run",
    "check_fields",
    "halton_points",
    "box_points",
]

RTOL = 1e-9
ATOL = 1e-12

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
_PRIMES = (2, 3, 5, 7, 11, 13, 17)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def compare(got, want, where: str = "$") -> list[str]:
    """Differences between two JSON values, as readable strings."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in sorted(want) for d in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _csv_cell(text: str):
    """A CSV cell as the JSON value it renders: float, int, bool, None or str."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_csv_cell(c) for c in row] for row in csv.reader(fh)]


def _axis(config: dict):
    """Lattice coordinates of one axis and the half width of the sampling box."""
    grid = config["grid"]
    h = grid["h"]
    extent = grid.get("spatial_extent", 1.0)
    steps = int(round(extent / h))
    return [(j - steps) * h for j in range(2 * steps + 1)], 0.35 * extent


def box_points(config: dict) -> list:
    """Every lattice point the Halton placement can pick, as coordinate lists."""
    axis, half = _axis(config)
    near = [x for x in axis if abs(x) <= half + config["grid"]["h"] / 2]
    points = [[]]
    for _ in range(config["grid"]["n_dim"]):
        points = [p + [x] for p in points for x in near]
    return points


def halton_points(config: dict) -> list:
    """Lattice-snapped Halton points at t = 0, as the p-sweep places them."""
    n = config["grid"]["n_dim"]
    axis, half = _axis(config)
    points, seen = [], set()
    index = config["seed"] + 1
    while len(points) < config["analysis"]["n_points"]:
        snapped = []
        for d in range(n):
            k, inv, radical = index, 1.0, 0.0
            while k > 0:
                inv /= _PRIMES[d]
                radical += inv * (k % _PRIMES[d])
                k //= _PRIMES[d]
            raw = (2.0 * radical - 1.0) * half
            snapped.append(min(axis, key=lambda x: abs(x - raw)))
        index += 1
        if tuple(snapped) not in seen:
            seen.add(tuple(snapped))
            points.append([snapped, 0.0])
    return points


def _alpha_table() -> dict:
    """Exponent per lattice point, from reference/psweep_alphas.json."""
    with open(os.path.join(REFERENCE_DIR, "psweep_alphas.json"), encoding="utf-8") as fh:
        return {tuple(x): alpha for x, alpha in json.load(fh)["alphas"]}


def expected_report(workload: str, config: dict) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    report["provenance"]["seed"] = config["seed"]
    if workload == "psweep":
        result = report["result"]
        result["points"] = halton_points(config)
        table = _alpha_table()
        # a point missing from the table is None here, which no float matches
        alphas = [table.get(tuple(x)) for x, _ in result["points"]]
        for row in result["rows"]:
            row["alphas"] = alphas
            if None not in alphas:
                row["alpha_min"] = min(alphas)
                row["meets_target"] = row["alpha_min"] >= result["alpha_target"]
    return report


def expected_csv(workload: str, report: dict) -> list:
    """The reference CSV with the columns that depend on the seed taken from report."""
    rows = _read_csv(os.path.join(REFERENCE_DIR, f"{workload}.csv"))
    if workload == "psweep":
        header = rows[0]
        for row, want in zip(rows[1:], report["result"]["rows"]):
            for column in ("alpha_min", "meets_target"):
                row[header.index(column)] = want[column]
    return rows


def _invariants(workload: str, result: dict) -> list[str]:
    problems = []
    if workload == "psweep":
        for row in result["rows"]:
            if row["status"] != "ok" or row["meets_target"] is not True:
                problems.append(f"p = {row['p']}: status {row['status']!r}, "
                                f"meets_target {row['meets_target']!r}")
    elif workload == "pucci3d":
        for row in result["rows"]:
            if row["verdict"] != "pass":
                problems.append(f"delta = {row['delta']}: verdict {row['verdict']!r}")
    elif workload == "epscont":
        d = result["distances"]
        if result["cauchy"] is not True or not all(a > b for a, b in zip(d, d[1:])):
            problems.append(f"cauchy {result['cauchy']!r}, distances {d}")
    return problems


def check_run(workload: str, config: dict, out_dir: str) -> list[str]:
    """Every problem found with the report in out_dir; empty when it is correct."""
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            got = json.load(fh)
        got_csv = _read_csv(os.path.join(out_dir, "report.csv"))
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"]
    want = expected_report(workload, config)
    problems = compare(got, want)
    problems += compare(got_csv, expected_csv(workload, want), "csv")
    try:
        problems += _invariants(workload, got["result"])
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks {exc}")
    return problems


def check_fields(workload: str, spans) -> list[str]:
    """Differences between the field digests of a warm-up study and the reference."""
    with open(os.path.join(REFERENCE_DIR, f"{workload}.fields.json"), encoding="utf-8") as fh:
        want = json.load(fh)
    got = [{key: span.get(key) for key in ("field_sum", "field_sup")}
           for span in spans if span["name"] == "solver.solve"]
    return compare(got, want, "fields")
