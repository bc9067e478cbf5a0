"""The machine kernel: the interpreter and the length-class scan.

reachcalc.machine and reachcalc.search call these directly.  Programs
arriving here are already validated (even length, terminal HALT only).
"""

from __future__ import annotations

from itertools import product

OK = 0
STEP_CAP = 1
OUTPUT_CAP = 2

_OPCODES = ("00", "01", "10")  # emit0, emit1, double; "11" halts


def run_bits(bits: str, max_steps: int, max_output_bits: int) -> tuple[int, str | None]:
    """Execute a validated program; (status, output) with status 0 on success."""
    out: list[str] = []
    steps = 0
    for i in range(0, len(bits), 2):
        steps += 1
        if steps > max_steps:
            return STEP_CAP, None
        op = bits[i : i + 2]
        if op == "00":
            if len(out) + 1 > max_output_bits:
                return OUTPUT_CAP, None
            out.append("0")
        elif op == "01":
            if len(out) + 1 > max_output_bits:
                return OUTPUT_CAP, None
            out.append("1")
        elif op == "10":
            if out:
                if 2 * len(out) > max_output_bits:
                    return OUTPUT_CAP, None
                out.extend(out)
        else:  # "11"
            break
    return OK, "".join(out)


def scan_length_class(n_opcodes: int, target: str, max_output_bits: int) -> list[str]:
    """All valid programs of exactly n_opcodes opcodes printing `target`.

    Returned in lexicographic bit order (the free opcodes 00 < 01 < 10
    enumerate in base-3 counter order, which is the same thing).
    """
    if len(target) > max_output_bits:
        return []
    hits: list[str] = []
    for body in product(_OPCODES, repeat=n_opcodes - 1):
        bits = "".join(body) + "11"
        status, out = run_bits(bits, n_opcodes, max_output_bits)
        if status == OK and out == target:
            hits.append(bits)
    return hits
