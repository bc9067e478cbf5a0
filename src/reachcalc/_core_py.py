"""The machine kernel: the program encoding, the interpreter, the
length-class scan and the target-prefix walk.

This module owns the encoding (the opcode table _OPCODES, DOUBLE, HALT, the
rank order) and the length class: its size, its rank order and the step cap
DEFAULT_MAX_STEPS.  The machine is straight-line, so a program of n opcodes
runs exactly n steps and the step cap bounds the opcode count;
check_step_cap is the one place that checks it.
reachcalc.machine and reachcalc.search call these directly.  Programs
arriving here are validated (even, terminal HALT only).

The rank of a program of n opcodes is its body read as n - 1 base-3
digits, most significant first, with 00 = 0, 01 = 1 and 10 = 2; rank order
is lexicographic bit order.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from .errors import ResourceExceeded

_OPCODES = ("00", "01", "10")  # emit0, emit1, double, in rank order
DOUBLE = _OPCODES[2]
HALT = "11"
DEFAULT_MAX_STEPS = 10_000


def check_step_cap(n_opcodes: int, program: str | None = None) -> None:
    """Raise ResourceExceeded if programs of n_opcodes opcodes run more than
    DEFAULT_MAX_STEPS steps; the message names the program when it is given,
    else its whole length class."""
    if n_opcodes > DEFAULT_MAX_STEPS:
        culprit = f"every program of {2 * n_opcodes} bits" if program is None else repr(program)
        raise ResourceExceeded(f"step cap {DEFAULT_MAX_STEPS} breached by {culprit}")


def run_bits(bits: str, width: int) -> str | None:
    """The output of a validated program, or None once it outgrows width bits.

    It runs the opcodes before the final HALT in order and counts no steps:
    a program's step count is its opcode count, which callers check against
    DEFAULT_MAX_STEPS beforehand with check_step_cap.
    """
    out = ""
    for i in range(0, len(bits) - 2, 2):
        # Only the double (10) starts with 1 before the HALT, and an emit
        # opcode's second bit is the bit it emits.
        out = out + out if bits[i] == "1" else out + bits[i + 1]
        if len(out) > width:
            return None
    return out


def scan_length_class(n_opcodes: int, target: str) -> list[str]:
    """All valid programs of exactly n_opcodes opcodes printing `target`,
    in rank order.

    Every candidate runs at the target's width: the output only grows, so a
    program stopped for outgrowing the target could never have printed it.
    The enumeration budget keeps n_opcodes far below DEFAULT_MAX_STEPS.
    """
    width = len(target)
    return [bits for bits in iter_valid_programs(n_opcodes) if run_bits(bits, width) == target]


def iter_valid_programs(n_opcodes: int) -> Iterator[str]:
    """Yield every valid program with exactly n_opcodes opcodes, lex order."""
    if n_opcodes < 1:
        return
    for body in product(_OPCODES, repeat=n_opcodes - 1):
        yield "".join(body) + HALT


def class_size(n_opcodes: int, cap: int) -> int:
    """min(3**(n_opcodes - 1), cap): the programs of n_opcodes >= 1 opcodes,
    counted up to cap without forming a power larger than cap."""
    if n_opcodes - 1 >= cap.bit_length():
        return cap  # 3**(n_opcodes - 1) >= 2**(n_opcodes - 1) > cap
    return min(3 ** (n_opcodes - 1), cap)


def literal_bits(target: str) -> str:
    """The transcription of target: emit0 or emit1 per bit, then HALT."""
    return "".join(_OPCODES[bit == "1"] for bit in target) + HALT


def rank_bits(n_opcodes: int, rank: int) -> str:
    """The program of n_opcodes opcodes with the given rank."""
    body = []
    for _ in range(n_opcodes - 1):
        rank, digit = divmod(rank, 3)
        body.append(_OPCODES[digit])
    return "".join(reversed(body)) + HALT


def class_hit_ranks(n_opcodes: int, target: str, *, stop: int | None = None) -> list[int]:
    """Ascending ranks of the programs of n_opcodes opcodes that print
    `target`, only those below `stop` when it is given.  A class past the
    step cap raises ResourceExceeded.

    The output only grows, so a program hits only if its output stays a
    prefix of the target at every step.  The walk tracks the prefix length
    and tries the opcodes in rank order, so its hits come out sorted and a
    class costs its hits, not its 3**(n_opcodes - 1) candidates.
    """
    size = len(target)
    check_step_cap(n_opcodes)
    if n_opcodes < 1:
        return []
    hits: list[int] = []
    # (prefix length, rank of the opcodes taken, free opcodes left); a node's
    # subtree holds the ranks rank * 3**left up to the next multiple.
    stack = [(0, 0, n_opcodes - 1)]
    while stack:
        state, rank, left = stack.pop()
        if stop is not None and rank * 3**left >= stop:
            break  # every node still on the stack lies above this one
        if left == 0:
            if state == size:
                hits.append(rank)
            continue
        if state and left > size - state:
            continue  # a non-empty output grows with every opcode: too long
        # Push the double (digit 2) first so the emit (digit 0 or 1) pops first.
        if state == 0:
            stack.append((0, 3 * rank + 2, left - 1))
        elif target[state : 2 * state] == target[:state]:
            stack.append((2 * state, 3 * rank + 2, left - 1))
        if state < size:
            stack.append((state + 1, 3 * rank + (target[state] == "1"), left - 1))
    return hits
