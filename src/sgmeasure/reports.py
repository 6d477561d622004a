"""Report containers and their JSON/CSV serialization.

Both formats carry the same content as plain JSON or CSV for any parser:
floats are written with shortest-repr precision, non-finite dB values
become explicit nulls (empty CSV cells).  Nothing time- or
environment-dependent is ever written, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import output_file

SCHEMA_VERSION = 1

__all__ = ["AnalysisReport", "SCHEMA_VERSION", "write_report"]


# Rows per CSV write and cells per JSON write: the most cell text held at once.
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class AnalysisReport:
    """Scalar summary plus aligned per-row table columns.

    ``table`` maps column name to a column: a list of builtin float, int or
    None (the simulate reports) or a 1-D float64 array
    (:func:`~sgmeasure.session.analyze_session`); all columns have equal
    length.  :func:`write_report` stamps every report with
    ``SCHEMA_VERSION``.  None, like a non-finite float, marks a value that is undefined
    (e.g. dB of zero) and is written as null.
    """

    summary: dict
    table: dict[str, list | np.ndarray]

    def __post_init__(self):
        if any(isinstance(v, np.ndarray) and v.ndim != 1 for v in self.table.values()):
            raise ValueError("array table columns must be 1-D")
        lengths = {len(v) for v in self.table.values()}
        if len(lengths) > 1:
            raise ValueError("table columns have unequal lengths")


def _clean(value):
    """Numbers as builtin floats, in nested dicts and lists too; a non-finite one becomes None."""
    if isinstance(value, float):  # includes numpy float scalars
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_clean, value))
    return value


def _cells(column, null: str) -> list[str]:
    """One column as text: shortest-repr numbers, ``null`` for None and non-finite.

    ``float.__repr__`` also gives numpy float scalars their builtin repr.  An
    array column becomes builtin floats here, one column at a time.
    """
    if isinstance(column, np.ndarray):
        finite = np.isfinite(column)
        column = column.tolist()
    else:
        finite = np.isfinite(np.asarray(column, dtype=np.float64))
    try:
        cells = list(map(float.__repr__, column))
    except TypeError:  # ints or None among the cells
        cells = [float.__repr__(v) if isinstance(v, float) else repr(v) for v in column]
    for i in np.flatnonzero(~finite):
        cells[i] = null
    return cells


def _json_chunks(report: AnalysisReport):
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of the report, in pieces.

    The first piece holds the summary; then each table column comes in
    blocks of ``_CSV_BLOCK_ROWS`` cells.
    """
    head = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "summary": _clean(report.summary),
        },
        indent=2,
        sort_keys=True,
    )
    # "table" sorts after "schema_version" and "summary": reopen the object
    yield head[:-2] + ',\n  "table": {'
    if not report.table:
        yield "}\n}\n"
        return
    sep = "\n"
    for name in sorted(report.table):
        column = report.table[name]
        yield f"{sep}    {json.dumps(name)}: ["
        lead = "\n      "
        for start in range(0, len(column), _CSV_BLOCK_ROWS):
            cells = _cells(column[start : start + _CSV_BLOCK_ROWS], "null")
            yield lead + ",\n      ".join(cells)
            lead = ",\n      "
        yield "\n    ]" if len(column) else "]"
        sep = ",\n"
    yield "\n  }\n}\n"


def _csv_chunks(report: AnalysisReport):
    """The report as CSV, in pieces: the head with the summary, then blocks of rows."""
    summary = _clean(report.summary)
    yield (
        f"# schema_version: {SCHEMA_VERSION}\n"
        f"# summary: {json.dumps(summary, sort_keys=True)}\n"
        + ",".join(report.table) + "\n"
    )
    columns = list(report.table.values())
    for start in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK_ROWS):
        stop = start + _CSV_BLOCK_ROWS
        yield "\n".join(
            map(",".join, zip(*[_cells(col[start:stop], "") for col in columns]))
        ) + "\n"


def write_report(path: str | Path, report: AnalysisReport) -> None:
    """Write a report as JSON or CSV depending on the path suffix.

    The table is formatted as it is written, one JSON column or one block of
    CSV rows at a time.  A summary that cannot be serialized raises before
    the file is opened.  A failed write raises
    :class:`~sgmeasure.errors.UnwritableOutput`, and no partial file is left.
    """
    path = Path(path)
    chunks = _json_chunks(report) if path.suffix.lower() == ".json" else _csv_chunks(report)
    head = next(chunks)
    with output_file(path, "w") as out:
        out.write(head)
        out.writelines(chunks)
