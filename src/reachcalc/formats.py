"""Serialization of reports, solution sets, and traces.

Three text shapes, all deterministic (12 significant digits for floats):

* records: one record per line as space-separated key=value pairs, keys in
  a fixed order (reports use program, length, p, variation, reachability,
  energy);
* csv: the same rows with a header line;
* table: human-readable aligned columns.

Program files are plain text over {0,1}; whitespace is ignored.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable

from .errors import DomainError

__all__ = [
    "REPORT_KEYS",
    "SOLUTION_KEYS",
    "TRACE_KEYS",
    "format_value",
    "records_text",
    "csv_text",
    "table_text",
    "parse_records",
    "parse_csv",
    "read_program_text",
]

REPORT_KEYS = ("program", "length", "p", "variation", "reachability", "energy")
SOLUTION_KEYS = ("program", "length", "p")
TRACE_KEYS = ("program", "length", "outcome")


def format_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def records_text(rows: Iterable[dict], keys: tuple[str, ...]) -> str:
    lines = [
        " ".join(f"{k}={format_value(row[k])}" for k in keys) for row in rows
    ]
    if lines:
        lines.append("")  # the join then ends the last line: no second copy
    return "\n".join(lines)


def csv_text(rows: Iterable[dict], keys: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([format_value(row[k]) for k in keys])
    return buf.getvalue()


def table_text(rows: list[dict], keys: tuple[str, ...]) -> str:
    cells = [[format_value(row[k]) for k in keys] for row in rows]
    widths = [
        max(len(k), *(len(c[i]) for c in cells)) if cells else len(k)
        for i, k in enumerate(keys)
    ]
    out = ["  ".join(k.ljust(w) for k, w in zip(keys, widths)).rstrip()]
    for c in cells:
        out.append("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip())
    return "\n".join(out) + "\n"


def _coerce(text: str):
    if text.isdigit() or (text.startswith("-") and text[1:].isdigit()):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def parse_records(text: str) -> list[dict]:
    """Inverse of records_text; program/outcome stay strings, numbers coerce."""
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        row = {}
        for pair in line.split():
            key, _, value = pair.partition("=")
            row[key] = value if key in ("program", "outcome") else _coerce(value)
        rows.append(row)
    return rows


def parse_csv(text: str) -> list[dict]:
    """Inverse of csv_text; program/outcome stay strings, numbers coerce."""
    reader = csv.reader(io.StringIO(text))
    try:
        keys = next(reader)
    except StopIteration:
        return []
    return [
        {
            k: (v if k in ("program", "outcome") else _coerce(v))
            for k, v in zip(keys, row)
        }
        for row in reader
    ]


def read_program_text(text: str) -> str:
    """Bits from a program file: {0,1} characters, whitespace ignored."""
    bits = "".join(text.split())
    if set(bits) - {"0", "1"}:
        more = "..." if len(bits) > 40 else ""
        raise DomainError(f"program text must be over {{0,1}}, got {bits[:40]!r}{more}")
    return bits
