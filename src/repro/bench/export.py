"""Export benchmark results to CSV / JSON for external plotting.

The paper's figures are bar charts; users replotting them want the raw
series.  ``figure_to_csv`` emits one row per bar with every breakdown
component and counter; ``figure_to_json`` keeps the grouping structure.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import pathlib

from repro.bench.reporting import BreakdownRow

__all__ = ["figure_to_csv", "figure_to_json", "write_figure"]

_FIELDS = [f.name for f in dataclasses.fields(BreakdownRow)]


def figure_to_csv(result) -> str:
    """CSV with columns ``group, <every BreakdownRow field>``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["group"] + _FIELDS)
    for group, rows in result.groups.items():
        for row in rows:
            writer.writerow([group] + [getattr(row, f) for f in _FIELDS])
    return buf.getvalue()


def figure_to_json(result) -> str:
    """JSON preserving the figure's group structure."""
    payload = {
        "name": result.name,
        "groups": {
            group: [dataclasses.asdict(row) for row in rows]
            for group, rows in result.groups.items()
        },
    }
    return json.dumps(payload, indent=1)


def write_figure(result, path: str | pathlib.Path) -> pathlib.Path:
    """Write a figure result; the suffix picks the format (.csv or .json)."""
    path = pathlib.Path(path)
    if path.suffix == ".csv":
        path.write_text(figure_to_csv(result))
    elif path.suffix == ".json":
        path.write_text(figure_to_json(result))
    else:
        raise ValueError(f"unsupported export format {path.suffix!r} (use .csv or .json)")
    return path
