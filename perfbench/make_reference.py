"""Write the reference reports the benchmark checks every run against.

    python3 perfbench/make_reference.py

Runs each workload once at seed 0 through the CLI, in a child that
digests every marched field, and writes its report.json, report.csv
and field digests (<workload>.fields.json) into perfbench/reference/.
Then runs the
psweep study once more with every lattice point of the Halton sampling
box as a study point and writes the exponent of each point to
reference/psweep_alphas.json, so a run at any seed can be checked
point by point (this pass takes a few minutes).  Rerun it only when a
change moves the reports on purpose, and state the drift.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from check import box_points
from run import BLAS_THREADS, HERE, ROOT, SRC
from workloads import WORKLOADS, make_config


def _run_cli(subcommand: str, config: dict, out_dir: str) -> list:
    """Run one study through child.py; return the spans of its field hooks."""
    config_path = os.path.join(out_dir, "config.json")
    result_path = os.path.join(out_dir, "child.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), SRC, result_path, "fields", "--",
         subcommand, "--config", config_path, "--out", out_dir, "--threads", "1"],
        cwd=ROOT, env=dict(os.environ, **BLAS_THREADS), check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def main() -> int:
    reference = os.path.join(HERE, "reference")
    os.makedirs(reference, exist_ok=True)
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            spans = _run_cli(workload["subcommand"], make_config(name, 0), tmp)
            for ext in ("json", "csv"):
                shutil.copyfile(os.path.join(tmp, f"report.{ext}"),
                                os.path.join(reference, f"{name}.{ext}"))
        digests = [{key: span[key] for key in ("field_sum", "field_sup")}
                   for span in spans if span["name"] == "solver.solve"]
        with open(os.path.join(reference, f"{name}.fields.json"), "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1)
            fh.write("\n")
        print(f"wrote reference/{name}.json, .csv and .fields.json ({len(digests)} fields)")

    config = make_config("psweep", 0)
    every = box_points(config)
    config["analysis"]["n_points"] = len(every)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        _run_cli(WORKLOADS["psweep"]["subcommand"], config, tmp)
        with open(os.path.join(tmp, "report.json"), encoding="utf-8") as fh:
            result = json.load(fh)["result"]
    (row,) = result["rows"]
    points = [x for x, _ in result["points"]]
    if sorted(points) != sorted(every):
        raise SystemExit("the study did not place every lattice point of the sampling box")
    table = {"p": row["p"], "alphas": sorted(zip(points, row["alphas"]))}
    with open(os.path.join(reference, "psweep_alphas.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh)
        fh.write("\n")
    print(f"wrote reference/psweep_alphas.json ({len(points)} points, "
          f"exponents {min(row['alphas']):.6f} .. {max(row['alphas']):.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
