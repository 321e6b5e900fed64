"""Artifact writers: CSV at full double precision and strict JSON.

CSV output is deterministic (17 significant digits, no timestamps), so two
runs of the same configuration produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import RECORD_FIELDS


def fmt(value: float) -> str:
    return format(float(value), ".17g")


# rows per format call: one call per row is slow, and one per file holds
# about 180 bytes per value in temporaries
_BLOCK_ROWS = 64


def write_csv(path, header, rows) -> None:
    """Header and rows, one line each.  rows is a 2-D float array, whose
    values are written as fmt writes them, one format call per block of
    rows, or an iterable of rows whose str cells are written as they are
    and numbers through fmt."""
    with Path(path).open("w", newline="") as fh:
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.write(",".join(header) + "\n")
            for start in range(0, len(rows), _BLOCK_ROWS):
                block = rows[start:start + _BLOCK_ROWS]
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
            return
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else fmt(v) for v in row] for row in rows)


def write_timeseries(path, records) -> None:
    rows = np.array([r.as_row() for r in records], dtype=float).reshape(-1, len(RECORD_FIELDS))
    write_csv(path, RECORD_FIELDS, rows)


def write_snapshot(path, state) -> None:
    rows = np.column_stack((state.rho.grid.nodes, state.rho.values, state.u.values))
    write_csv(path, ("x", "rho", "u"), rows)


def dumps(payload) -> str:
    """Strict JSON with sorted keys: NaN or infinity raises ValueError."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=str)


def write_metadata(path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("code_version", __version__)
    Path(path).write_text(dumps(payload) + "\n")
