"""Artifact writers: CSV at full double precision and run metadata JSON.

CSV output is deterministic (17 significant digits, no timestamps), so two
runs of the same configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from . import __version__
from .diagnostics import RECORD_FIELDS


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path, header, rows) -> None:
    """Header and rows, one line each; str cells are written as they are,
    numbers through fmt."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else fmt(v) for v in row] for row in rows)


def write_timeseries(path, records) -> None:
    write_csv(path, RECORD_FIELDS, (r.as_row() for r in records))


def write_snapshot(path, state) -> None:
    x = state.rho.grid.nodes
    rows = zip(x, state.rho.values, state.u.values)
    write_csv(path, ("x", "rho", "u"), rows)


def write_metadata(path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("code_version", __version__)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True,
                                     default=str) + "\n")
