"""Benchmark of the puccilab CLI studies.

    python3 perfbench/run.py --workload psweep --seed 3 --seconds 35 --trace 0

Runs the workload's study (see ``workloads.py``) through the CLI in one
child process at a time, single-threaded (``--threads 1``, BLAS pinned
to one thread in the child's environment only), until ``--seconds``
have passed and at least ``MIN_SAMPLES`` studies are done.  Every
report written is checked against ``reference/``.  One untimed warm-up
study runs first, with digests of its marched fields checked against
``reference/`` as well; if it fails, the program is absent or broken
and the benchmark exits 3 without a result.  Times are scaled to a reference
machine speed measured by ``calibrate()`` around every child (see
``CAL_REF_S``); the unscaled values are printed and recorded too.

With ``--trace 0`` the children run untouched and the end-to-end
metrics are printed.  With ``--trace 1`` every second child installs
the layer hooks of ``tracing.py`` and the per-layer metrics are
printed; the children in between are untraced, so the same run gives
the tracing overhead.  Human-readable tables go first, the last line
of standard output is one JSON object, and the full record (machine
facts, every sample, spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from check import check_fields, check_run  # noqa: E402
from stats import TAIL_BEYOND, fail_share, median, tail_percentile  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

# Enough untraced samples for a tail percentile with TAIL_BEYOND beyond it.
MIN_SAMPLES = TAIL_BEYOND + 1
# A child is killed past CHILD_TIMEOUT_S and no child starts after
# RUN_LIMIT_S, so warm-up, loop and last child end inside three minutes.
CHILD_TIMEOUT_S = 30.0
RUN_LIMIT_S = 110.0
# Times are reported at the speed the machine has when calibrate() takes
# this long: each sample is scaled by CAL_REF_S over the mean of the
# calibrations run just before and just after its child.  On a shared machine
# the speed drifts by tens of percent over minutes; the scaling takes
# that drift out while a change to the program still shows in full.
CAL_REF_S = 0.03
TIMES = ("study_s", "setup_s", "cpu_s")
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Printed by --trace 0 and in the JSON last line, in BENCHMARK.json order.
END_TO_END = ("study_s", "study_tail_s", "setup_s", "cpu_s", "peak_rss_mb")
# Also printed, but left out of the JSON last line: both are zero on
# some workload at this commit, so a relative bound means nothing.
END_TO_END_PRINTED = ("fp_warnings", "fail_share")

# Per-unit ratios of a layer that some workload never enters have no
# value there (their base count is zero); they are printed and recorded
# but left out of the JSON last line, which must hold every per-layer
# metric on every workload.  Times and counts of such a layer are zero
# as measured and stay in.
UNDEFINED_ON_SOME_WORKLOAD = (
    "regularity.us_per_fit",
    "operators.ns_per_membership_node",
    "linalg.march.ns_per_hessian",
    "linalg.membership.ns_per_hessian",
)
# Printed by --trace 1 as the JSON last line, in BENCHMARK.json order.
PER_LAYER = ("trace_overhead_share", "traced_study_s") + tuple(
    name for name in tracing.UNITS if name not in UNDEFINED_ON_SOME_WORKLOAD
)

# The one table of units: every metric printed, recorded or listed in BENCHMARK.json.
UNITS = {
    "study_s": "s",
    "study_tail_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "fp_warnings": "count",
    "fail_share": "share",
    "calibration_s": "s",
    "trace_overhead_share": "ratio",
    "traced_study_s": "s",
    **tracing.UNITS,
}


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    # getconf asks the CPU (cpuid on x86) and reads no file
    caches = {}
    try:
        listing = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                                 timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        listing = ""
    for line in listing.splitlines():
        key, _, value = line.partition(" ")
        level = {"LEVEL1_DCACHE_SIZE": "L1d", "LEVEL2_CACHE_SIZE": "L2",
                 "LEVEL3_CACHE_SIZE": "L3"}.get(key)
        if level and value.strip().isdigit():
            caches[level] = f"{int(value) // 1024} KiB"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_in_child": BLAS_THREADS,
        "caches_getconf": caches or "unknown",
        "computed_sizes": "grid.gather_mb and solver.history_mb are computed "
                          "from array sizes, not measured traffic",
    }


# 32 MB, past the L2 cache: slowed like the cylinder gathers when other
# processes on the machine compete for the shared cache and memory
_STREAM = np.arange(4_000_000, dtype=float)
_STRIDED = np.empty(1_000_000)


def calibrate() -> float:
    """Seconds for a fixed mix of the work the studies do, in this process.

    A relaxation sweep of a five-point stencil on a 129 x 129 array,
    elementwise passes over 2744 values (numpy call overhead, as in the
    batched eigen-solve), a pure-Python loop and two strided passes
    over a 32 MB array (memory traffic).  The inputs are fixed and every
    array is allocated before the clock starts, so the time tracks how
    fast the machine runs right now and not the state of this
    process's heap.
    """
    grid = (np.arange(129 * 129, dtype=float).reshape(129, 129) % 97) / 97.0
    inner = grid[1:-1, 1:-1]
    acc = np.empty_like(inner)
    tmp = np.empty_like(inner)
    small = (np.arange(2744, dtype=float) % 13 + 1.0) / 13.0
    root = np.empty_like(small)
    start = time.perf_counter()
    for _ in range(120):
        np.add(grid[2:, 1:-1], grid[:-2, 1:-1], out=acc)
        np.add(acc, grid[1:-1, 2:], out=acc)
        np.add(acc, grid[1:-1, :-2], out=acc)
        np.multiply(inner, 4.0, out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.multiply(acc, 0.1, out=acc)
        np.add(inner, acc, out=inner)
        for _ in range(6):
            np.sqrt(small, out=root)
            np.multiply(root, 0.999, out=small)
    total = 0
    for i in range(200_000):
        total += i & 7
    for _ in range(2):
        _STRIDED[:] = _STREAM[::4]
        _STREAM.sum()
    return time.perf_counter() - start


def run_child(workload: str, config_path: str, run_dir: str, hooks: str, config: dict):
    """Run one study with a hook set of ``tracing.HOOK_SETS``; return (problems, sample)."""
    trace = hooks == "trace"
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "child.json")
    report_dir = os.path.join(run_dir, "report")
    # Paths relative to the checkout, so the child's command line is the same
    # in every checkout: the peak RSS of a study can move by 2 MB with the
    # length of the strings the child allocates first (glibc adapts its mmap
    # threshold to the allocation history).
    cmd = [sys.executable] + [os.path.relpath(path, ROOT) for path in (
        os.path.join(HERE, "child.py"), SRC, result_path)] + [
        hooks, "--", WORKLOADS[workload]["subcommand"],
        "--config", os.path.relpath(config_path, ROOT),
        "--out", os.path.relpath(report_dir, ROOT), "--threads", "1",
    ]
    env = dict(os.environ, **BLAS_THREADS)
    err_path = os.path.join(run_dir, "stderr.txt")
    with open(os.path.join(run_dir, "stdout.txt"), "w") as out, open(err_path, "w") as err:
        calibration_before_s = calibrate()
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        # a blocking wait, not polling, so the parent takes no CPU from the child
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    # the machine's speed while the child ran: calibrations on both sides
    calibration_s = (calibration_before_s + calibrate()) / 2.0
    proc.returncode = os.waitstatus_to_exitcode(status)

    problems = []
    record = {}
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {proc.returncode}: {tail[0]}")
    try:
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        problems.append("the child left no result")
    spans = {s["name"]: s for s in record.get("spans", [])}
    if not problems and not {"experiments.load_config", "experiments.execute"} <= set(spans):
        problems.append("the child recorded no load_config or execute span")
    if not problems:
        problems += check_run(workload, config, report_dir)
    if hooks == "fields" and not problems:
        problems += check_fields(workload, record["spans"])
    if trace and not problems:
        problems += tracing.trace_problems(record["spans"])
    sample = {
        "traced": trace,
        "problems": problems,
        "calibration_s": calibration_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0 if "peak_rss_kb" in record else None,
        "fp_warnings": record.get("fp_warnings"),
    }
    if not problems:
        # spans and spawn time read the same monotonic clock
        sample["setup_s"] = spans["experiments.load_config"]["end"] - spawned
        study = spans["experiments.execute"]
        sample["study_s"] = study["end"] - study["start"]
    if trace and not problems:
        sample["untraced"] = record["untraced"]
        sample["spans"] = record["spans"]
        sample["layers"] = tracing.layer_metrics(record["spans"], record["untraced"])
        sample["layer_self_s"] = tracing.layer_self_times(record["spans"])
    shutil.rmtree(run_dir)
    return problems, sample


def _scaled(sample: dict, value):
    """A time of one sample, at the speed where calibrate() takes CAL_REF_S."""
    return None if value is None else value * CAL_REF_S / sample["calibration_s"]


def _summary(values) -> dict | None:
    """Median, tail percentile and count of the values that are not None."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    out = {"median": median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_pct"], out["tail"] = tail
    return out


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<36} {'unit':<6} {'n':>4} {'median':>12} {'tail (pct)':>20}")
    for name, unit, summary in rows:
        if summary is None:
            print(f"  {name:<36} {unit:<6} {0:>4} {'-':>12}")
            continue
        tail = (f"{_fmt(summary['tail'])} (p{summary['tail_pct']})"
                if "tail" in summary else "-")
        print(f"  {name:<36} {unit:<6} {summary['n']:>4} "
              f"{_fmt(summary['median']):>12} {tail:>20}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "puccilab", "__init__.py")):
        print(f"perfbench: no puccilab package under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # no seed in the children's paths, so their command lines do not depend on it
    work = os.path.join(OUT, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = make_config(args.workload, args.seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)

    facts = machine_facts()
    problems, _ = run_child(args.workload, config_path, os.path.join(work, "warmup"),
                            "fields", config)
    if problems:
        print(f"perfbench: warm-up study failed: {problems[:3]}", file=sys.stderr)
        return 3

    started = time.monotonic()
    samples = []
    while True:
        elapsed = time.monotonic() - started
        plain = sum(1 for s in samples if not s["traced"])
        if elapsed > RUN_LIMIT_S or (elapsed >= args.seconds and plain >= MIN_SAMPLES):
            break
        hooks = "trace" if args.trace and len(samples) % 2 == 1 else "time"
        run_dir = os.path.join(work, f"child{len(samples):04d}")
        samples.append(run_child(args.workload, config_path, run_dir, hooks, config)[1])

    attempted, failed, share = fail_share([s["problems"] for s in samples])
    good = [s for s in samples if not s["problems"]]
    plain = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    if not plain or (args.trace and not traced):
        print(f"perfbench: no study passed; first problems: "
              f"{[s['problems'][:1] for s in samples[:3]]}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{attempted} studies attempted, {failed} failed")
    print("machine: " + json.dumps(facts, sort_keys=True))
    for s in samples:
        if s["problems"]:
            print(f"  failed: {s['problems'][:3]}")
    e2e = {key: _summary(_scaled(s, s.get(key)) for s in plain) for key in TIMES}
    measured = {key: _summary(s.get(key) for s in plain) for key in TIMES}
    for key in ("peak_rss_mb", "fp_warnings", "calibration_s"):
        e2e[key] = _summary(s[key] for s in plain)
    e2e["fail_share"] = {"median": share, "n": attempted}
    study = e2e["study_s"]
    if "tail" in study:
        e2e["study_tail_s"] = {"median": study["tail"], "n": study["n"]}
    _print_table(f"end to end (untraced studies; times scaled to a {CAL_REF_S:g} s calibration; "
                 f"tail = highest percentile with {TAIL_BEYOND} samples beyond it)",
                 [(name, UNITS[name], e2e.get(name)) for name in END_TO_END + END_TO_END_PRINTED]
                 + [("calibration_s", "s", e2e["calibration_s"])]
                 + [(f"{key} as measured", "s", measured[key]) for key in TIMES])

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "config": config,
              "attempted": attempted, "failed": failed, "end_to_end": e2e,
              "end_to_end_as_measured": measured, "samples": samples}
    if args.trace:
        layers = {
            name: _summary(
                _scaled(s, s["layers"][name]) if UNITS[name] in ("s", "ns", "us")
                else s["layers"][name]
                for s in traced
            )
            for name in traced[0]["layers"]
        }
        traced_study = _summary(_scaled(s, s["study_s"]) for s in traced)
        layers["traced_study_s"] = traced_study
        layers["trace_overhead_share"] = {
            "median": traced_study["median"] / study["median"] - 1.0,
            "n": traced_study["n"],
        }
        gap = max(abs(sum(s["layer_self_s"].values()) - s["study_s"]) for s in traced)
        untraced = sorted({u for s in traced for u in s["untraced"]})
        _print_table("per layer (traced studies; times scaled like the end-to-end ones; "
                     "*_mb computed from array sizes)",
                     [(name, UNITS[name], summary) for name, summary in layers.items()])
        print(f"layer self times add up to traced study_s within {gap:.3g} s "
              f"(a child past {tracing.GAP_TOL_S:g} s fails); "
              f"untraced hook targets (their metrics are missing): {untraced or 'none'}; "
              "'-' marks a per-unit ratio of a layer the study never entered")
        record["per_layer"] = layers
        record["untraced_hooks"] = untraced
        metrics = {name: layers.get(name) for name in PER_LAYER}
    else:
        metrics = {name: e2e.get(name) for name in END_TO_END}

    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": summary["median"], "unit": UNITS[name]}
            for name, summary in metrics.items() if summary is not None
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
