"""Fixed-width ASCII tables, shared by the XRAY screen and benchmarks.

Lives in :mod:`repro.measure` (a leaf of the import DAG) so both the
run report and the benchmark harness can render through one
implementation without an upward import.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

__all__ = ["format_table"]


def format_table(rows: Sequence[Dict[str, Any]], title: str = "") -> str:
    """Render rows as a fixed-width ASCII table (benchmark output)."""
    if not rows:
        return f"{title}\n(no rows)"
    headers = list(rows[0].keys())
    rendered = [
        [_fmt(row.get(header)) for header in headers] for row in rows
    ]
    widths = [
        max(len(header), *(len(line[i]) for line in rendered))
        for i, header in enumerate(headers)
    ]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append("  ".join("-" * w for w in widths))
    for line in rendered:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(out)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
