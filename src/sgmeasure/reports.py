"""Report containers and their JSON/CSV serialization.

Both formats carry the same content and round-trip losslessly: floats are
written with shortest-repr precision, non-finite dB values become explicit
nulls (empty CSV cells).  Nothing time- or environment-dependent is ever
written, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

__all__ = ["AnalysisReport", "SCHEMA_VERSION", "write_report", "read_report"]


@dataclass(frozen=True)
class AnalysisReport:
    """Scalar summary plus aligned per-row table columns.

    ``table`` maps column name to a list of builtin float, int or None; all
    columns have equal length.  None, like a non-finite float, marks a value
    that is undefined (e.g. dB of zero) and is written as null.
    """

    summary: dict
    table: dict[str, list]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        lengths = {len(v) for v in self.table.values()}
        if len(lengths) > 1:
            raise ValueError("table columns have unequal lengths")

    def column(self, name: str) -> list:
        return self.table[name]


def _clean(value):
    """Coerce numeric scalars to builtin float; non-finite becomes None."""
    if isinstance(value, float):  # includes numpy float scalars
        return float(value) if math.isfinite(value) else None
    return value


def _cells(column, null: str) -> list[str]:
    """One column as text: shortest-repr numbers, ``null`` for None and non-finite.

    ``float.__repr__`` also gives numpy float scalars their builtin repr.
    """
    try:
        cells = list(map(float.__repr__, column))
    except TypeError:  # ints or None among the cells
        cells = [float.__repr__(v) if isinstance(v, float) else repr(v) for v in column]
    for i in np.flatnonzero(~np.isfinite(np.asarray(column, dtype=np.float64))):
        cells[i] = null
    return cells


def _json_table(table: dict[str, list]) -> str:
    """The table as ``json.dumps(..., indent=2, sort_keys=True)`` lays it out at depth 1."""
    if not table:
        return "{}"
    items = []
    for name in sorted(table):
        cells = _cells(table[name], "null")
        body = "[\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "[]"
        items.append(f"    {json.dumps(name)}: {body}")
    return "{\n" + ",\n".join(items) + "\n  }"


def _to_json(report: AnalysisReport) -> str:
    head = json.dumps(
        {
            "schema_version": report.schema_version,
            "summary": {k: _clean(v) for k, v in report.summary.items()},
        },
        indent=2,
        sort_keys=True,
    )
    # "table" sorts after "schema_version" and "summary": reopen the object
    return head[:-2] + f',\n  "table": {_json_table(report.table)}\n}}\n'


def _from_json(text: str) -> AnalysisReport:
    doc = json.loads(text)
    return AnalysisReport(
        summary=doc["summary"],
        table=doc["table"],
        schema_version=doc["schema_version"],
    )


def _to_csv(report: AnalysisReport) -> str:
    summary = {k: _clean(v) for k, v in report.summary.items()}
    columns = [_cells(col, "") for col in report.table.values()]
    lines = [
        f"# schema_version: {report.schema_version}",
        "# summary: " + json.dumps(summary, sort_keys=True),
        ",".join(report.table),
        *map(",".join, zip(*columns)),
    ]
    return "\n".join(lines) + "\n"


def _parse_cell(text: str):
    if text == "":
        return None
    return float(text)


def _from_csv(text: str) -> AnalysisReport:
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# schema_version:"):
        raise ValueError("not a report CSV")
    schema_version = int(lines[0].split(":", 1)[1])
    summary = json.loads(lines[1].split(":", 1)[1])
    names = lines[2].split(",")
    table: dict[str, list] = {name: [] for name in names}
    for line in lines[3:]:
        if not line:
            continue
        for name, cell in zip(names, line.split(",")):
            table[name].append(_parse_cell(cell))
    return AnalysisReport(summary=summary, table=table, schema_version=schema_version)


def write_report(path: str | Path, report: AnalysisReport) -> None:
    """Write a report as JSON or CSV depending on the path suffix."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(_to_json(report))
    else:
        path.write_text(_to_csv(report))


def read_report(path: str | Path) -> AnalysisReport:
    """Read back a report written by :func:`write_report`."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        return _from_json(text)
    return _from_csv(text)
