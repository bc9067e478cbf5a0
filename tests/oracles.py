"""Independent oracles the test suite checks the package against.

Everything here is deliberately written from the defining equations with
the dumbest dependable numerics available (bisection, exhaustive string
enumeration), sharing no code with the package.  Slow is fine; wrong is
not.  The text writers at the end lay out records, csv and table one row
at a time, csv by the standard csv writer, as the reference for the
package's class-at-a-time writer.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import islice, product


def bisect_w(x: float, lower: bool = False, iterations: int = 120) -> float:
    """Root of w * e^w = x by bisection on the requested real branch."""

    def f(w: float) -> float:
        return w * math.exp(w) - x

    if lower:
        hi = -1.0
        lo = -2.0
        while f(lo) < 0.0:
            lo *= 2.0
    else:
        lo = -1.0
        hi = 1.0
        while f(hi) < 0.0:
            hi *= 2.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if (f(mid) <= 0.0) == (not lower):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def plogp_root(variation: float, lower: bool = True, iterations: int = 120) -> float:
    """The p in (0,1) with p*log2(p) = -variation, on the requested side of 1/e."""

    def g(p: float) -> float:
        return p * math.log2(p) + variation

    if lower:
        lo, hi = 5e-324, 1.0 / math.e
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
    else:
        lo, hi = 1.0 / math.e, 1.0
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0.0:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def oracle_run(bits: str, max_steps: int = 10_000, max_output_bits: int = 64) -> str | None:
    """Run one candidate string; None when invalid or over a cap.

    Validity is decided pair by pair (even length, opcodes from {00,01,10},
    then 11 exactly once and last), execution by a list-of-chars
    interpreter.  Kept deliberately separate from the package kernels.
    """
    if not bits or len(bits) % 2:
        return None
    pairs = [bits[i : i + 2] for i in range(0, len(bits), 2)]
    if pairs[-1] != "11" or "11" in pairs[:-1]:
        return None
    out: list[str] = []
    steps = 0
    for i in range(0, len(bits) - 2, 2):
        steps += 1
        if steps > max_steps:
            return None
        op = bits[i : i + 2]
        if op == "00":
            out.append("0")
        elif op == "01":
            out.append("1")
        else:
            out = out + out
        if len(out) > max_output_bits:
            return None
    if steps + 1 > max_steps:  # the final HALT is a step too
        return None
    return "".join(out)


def oracle_solutions(max_len: int) -> dict[str, list[str]]:
    """Map output -> solving programs, by running EVERY string up to max_len.

    Programs appear in (length, lexicographic) order because that is the
    generation order.
    """
    table: dict[str, list[str]] = {}
    for n in range(1, max_len + 1):
        for v in range(2**n):
            bits = format(v, f"0{n}b")
            out = oracle_run(bits)
            if out is not None:
                table.setdefault(out, []).append(bits)
    return table


def oracle_class_counts(target: str, max_opcodes: int) -> list[int]:
    """counts[n]: how many programs of n opcodes (HALT included) print
    target, for n = 0..max_opcodes, counted without running any.

    A forward count over (opcodes run, output length): the output of a
    program that prints target is target[:s] after every opcode, as it
    never shrinks.  From s, emitting target[s] reaches s + 1, and a double
    reaches 2s when target[:s] twice is target[:2s] (at s = 0 it stays put).
    """
    ways = {0: 1}  # output length -> programs of the opcodes so far reaching it
    counts = [0]
    for _ in range(max_opcodes):
        counts.append(ways.get(len(target), 0))  # then HALT
        step: dict[int, int] = {}
        for s, count in ways.items():
            if s < len(target):
                step[s + 1] = step.get(s + 1, 0) + count
            if target[:s] * 2 == target[: 2 * s]:
                step[2 * s] = step.get(2 * s, 0) + count
        ways = step
    return counts



def _class_programs(n_opcodes: int):
    """Every program of n_opcodes opcodes, in lexicographic bit order."""
    for body in product(("00", "01", "10"), repeat=n_opcodes - 1):
        yield "".join(body) + "11"


def oracle_search(
    target: str,
    policy: str,
    programs: int,
    energy: float = math.inf,
    *,
    temperature: float = 300.0,
    start_length: int | None = None,
    max_len: int = 24,
    max_steps: int = 10_000,
    max_output_bits: int = 64,
) -> dict:
    """Demiurge search that runs every candidate it counts through oracle_run.

    policy is "exhaustive", "descending" or "greedy"; programs and energy are
    the budget.  Returns the fields of a SearchTrace as a dict, best_found as
    bits or None.  Energy is k T ln2 per bit saved, with the package's k; the
    greedy ranking inverts the variation by bisection (plogp_root).
    """
    unit = 1.38065e-23 * temperature * math.log(2.0)
    steps: list[tuple[str, str]] = []
    state = {"best": None, "bits_reduced": 0, "exhausted": False}

    def run_class(size: int, index: int, until_hit: bool) -> tuple[str | None, int]:
        """Run a class from its index-th program on; (first hit, next index)."""
        first = None
        for bits in islice(_class_programs(size // 2), index, None):
            if len(steps) >= programs:
                state["exhausted"] = True
                break
            hit = oracle_run(bits, max_steps, max_output_bits) == target
            steps.append((bits, "hit" if hit else "miss"))
            index += 1
            if hit and first is None:
                first = bits
                if until_hit:
                    break
        return first, index

    def accept(bits: str) -> bool:
        if state["best"] is None:
            state["best"] = bits
            return True
        saved = len(state["best"]) - len(bits)
        if saved <= 0:
            return True
        if unit * (state["bits_reduced"] + saved) > energy:
            state["exhausted"] = True
            return False
        state["bits_reduced"] += saved
        state["best"] = bits
        return True

    start = start_length if start_length is not None else 2 * len(target) + 2
    if policy == "exhaustive":
        state["best"], _ = run_class(start, 0, until_hit=False)
    elif policy == "descending":
        size = start
        while size >= 2 and not state["exhausted"]:
            hit, _ = run_class(size, 0, until_hit=True)
            if hit is None or not accept(hit):
                break
            size = len(hit) - 2
    else:
        cursors = {size: 0 for size in range(2, max_len + 2, 2)}
        found_weight = 0.0

        def priority(size: int) -> float:
            w = 2.0**-size
            p = w / (found_weight + w)
            return plogp_root(-p * math.log2(p), lower=True)

        while cursors and not state["exhausted"]:
            if state["best"] is not None:
                cursors = {s: c for s, c in cursors.items() if s < len(state["best"])}
                if not cursors:
                    break
            if found_weight > 0.0:
                size = min(cursors, key=lambda s: (-priority(s), s))
            else:
                size = min(cursors)
            hit, cursors[size] = run_class(size, cursors[size], until_hit=True)
            if state["exhausted"]:
                break
            if hit is None:
                del cursors[size]
            else:
                found_weight += 2.0**-size
                if not accept(hit):
                    break
    return {
        "steps": tuple(steps),
        "programs_run": len(steps),
        "best_found": state["best"],
        "bits_reduced": state["bits_reduced"],
        "energy_charged": unit * state["bits_reduced"],
        "budget_exhausted": state["exhausted"],
    }


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def oracle_records_text(rows, keys: tuple[str, ...]) -> str:
    """One `key=value` line per row."""
    return "".join(" ".join(f"{k}={_cell(row[k])}" for k in keys) + "\n" for row in rows)


def oracle_csv_text(rows, keys: tuple[str, ...]) -> str:
    """A header line, then one line per row, by the standard csv writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_cell(row[k]) for k in keys])
    return buf.getvalue()


def oracle_table_text(rows, keys: tuple[str, ...]) -> str:
    """A header line, then one line per row, each column padded to its widest
    cell, with the padding after the last column dropped."""
    cells = [[_cell(row[k]) for k in keys] for row in rows]
    widths = [max([len(k), *(len(c[i]) for c in cells)]) for i, k in enumerate(keys)]
    return "".join("  ".join(v.ljust(w) for v, w in zip(line, widths)).rstrip() + "\n"
                   for line in [list(keys), *cells])
