"""One study, run through the puccilab CLI the way a user runs it.

    python3 perfbench/child.py SRC_DIR RESULT_JSON HOOKS -- <CLI arguments>

Imports puccilab from SRC_DIR only, calls ``cli.main`` with the CLI
arguments, and writes RESULT_JSON with the exit code, the spans of
the installed hooks, the hook targets that were missing, the number
of floating-point RuntimeWarnings raised and the peak resident set.  HOOKS names a set
in ``tracing.HOOK_SETS``: ``time`` wraps only ``load_config`` and
``execute``, whose spans give the set-up and study times; ``trace``
adds the layer hooks; ``fields`` adds digests of the marched fields.
The child's exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import warnings


def peak_rss_kb() -> int:
    """Peak resident set of this process since it was exec'd, in KiB (Linux).

    Not ``ru_maxrss``: that keeps the peak of the process image the child
    was forked from, so it would read the benchmark parent's size
    whenever the parent is the larger of the two.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("/proc/self/status has no VmHWM line")


def main(argv) -> int:
    src, result_path, hooks = argv[0], argv[1], argv[2]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, os.path.abspath(src))
    from puccilab.experiments import cli

    origin = os.path.dirname(os.path.abspath(cli.__file__))
    if not origin.startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"puccilab was imported from {origin}, not from {src}")

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    tracer = tracing.Tracer(run_id=os.path.basename(os.path.dirname(result_path)))
    untraced = tracing.install(tracer, tracing.HOOK_SETS[hooks])
    record = {"untraced": untraced, "spans": tracer.spans}

    # "always" records every occurrence, not the first per location;
    # warnings stay warnings, so a defect shows as a count, not a crash.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record["exit_code"] = cli.main(cli_args)
    record["fp_warnings"] = sum(
        1 for w in caught if issubclass(w.category, RuntimeWarning)
    )
    record["peak_rss_kb"] = peak_rss_kb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
