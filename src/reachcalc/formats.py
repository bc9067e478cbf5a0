"""Serialization of reports, solution sets, and traces.

Three text shapes, all deterministic (12 significant digits for floats):

* records: one record per line as space-separated key=value pairs, keys in
  a fixed order (reports use program, length, p, variation, reachability,
  energy);
* csv: the same rows with a header line;
* table: human-readable aligned columns.

One writer, ``classes_text``, lays out all three.  It takes rows by class,
programs that share every other column, so a solution set's length class
is formatted once; ``records_text``, ``csv_text`` and ``table_text`` pass it
one row per class.  csv cells are written as they are, never quoted: every
cell printed is a bit string, a number, a bool, a branch name or hit/miss,
so none holds a comma, a quote or a line break.  Only ``parse_csv`` needs
the csv module.

Program files are plain text over {0,1}; whitespace is ignored.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import DomainError

__all__ = [
    "REPORT_KEYS",
    "SOLUTION_KEYS",
    "TRACE_KEYS",
    "format_value",
    "classes_text",
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


def classes_text(fmt: str, keys: tuple[str, ...], classes: Iterable[tuple]) -> str:
    """Rows in fmt ("table", "records" or "csv"), given by class: each class
    is (programs, row), where programs are cells of the first column and row
    holds every other column for all of them.  A class's other columns are
    formatted and padded once, and each line is a program plus that class's
    suffix.  A table's widths are taken over every cell, so a table reads
    all the classes first; records and csv stream them.  A table and csv
    start with a header line, even over no class."""
    rest = keys[1:]
    if fmt == "table":
        cells = [(programs, [format_value(row[k]) for k in rest]) for programs, row in classes]
        width = max([len(keys[0]), *(len(p) for programs, _ in cells for p in programs)])
        widths = [max([len(k), *(len(c[i]) for _, c in cells)]) for i, k in enumerate(rest)]
        out = ["  ".join(k.ljust(w) for k, w in zip(keys, (width, *widths))).rstrip() + "\n"]
        for programs, c in cells:
            # Cells are never empty and hold no space, so rstrip drops only
            # the last column's padding.
            tail = "  " + "  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip() + "\n"
            out += [p.ljust(width) + tail for p in programs]
        return "".join(out)
    if fmt == "records":
        lead, seps, out = f"{keys[0]}=", [(f" {k}=", k) for k in rest], []
    else:
        lead, seps, out = "", [(",", k) for k in rest], [",".join(keys) + "\n"]
    append = out.append
    for programs, row in classes:
        tail = "".join([sep + format_value(row[k]) for sep, k in seps])
        for p in programs:
            append(f"{lead}{p}{tail}\n")
    return "".join(out)


def _one_row_classes(rows: Iterable[dict], key: str):
    return (((format_value(row[key]),), row) for row in rows)


def records_text(rows: Iterable[dict], keys: tuple[str, ...]) -> str:
    return classes_text("records", keys, _one_row_classes(rows, keys[0]))


def csv_text(rows: Iterable[dict], keys: tuple[str, ...]) -> str:
    return classes_text("csv", keys, _one_row_classes(rows, keys[0]))


def table_text(rows: list[dict], keys: tuple[str, ...]) -> str:
    return classes_text("table", keys, _one_row_classes(rows, keys[0]))


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
    import csv  # only here: csv_text writes its cells as they are
    import io

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
