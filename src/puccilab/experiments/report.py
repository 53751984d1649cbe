"""Deterministic report emission.

Byte-identical reruns are a contract: no timestamps, keys sorted,
floats rendered by repr (shortest round-trip form), '\\n' endings.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict

from .. import __version__
from ..grid import Grid

__all__ = ["provenance", "fmt_cell", "render_csv", "write_text", "write_report"]


def provenance(grid: Grid, seed: int, scenario: str) -> dict:
    return {
        "version": __version__,
        "scenario": scenario,
        "seed": seed,
        "grid": asdict(grid),
    }


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_cell(c) for c in row))
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_report(out_dir: str, payload: dict, header, rows) -> list[str]:
    """Write report.json and report.csv; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "report.csv")
    write_text(json_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    write_text(csv_path, render_csv(header, rows))
    return [json_path, csv_path]
