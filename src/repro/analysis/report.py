"""Structured export of figure rows (CSV, JSON); the text table is
:func:`repro.obs.exporters.render_table`."""

from __future__ import annotations

from typing import Dict, List


def rows_to_csv(rows: List[Dict], stream) -> int:
    """Write dict rows as CSV; returns the number of data rows."""
    import csv
    if not rows:
        return 0
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return len(rows)


def rows_to_json(rows: List[Dict], stream) -> int:
    """Write dict rows as a JSON array; returns the number of rows."""
    import json
    json.dump(rows, stream, indent=2, default=str)
    stream.write("\n")
    return len(rows)
