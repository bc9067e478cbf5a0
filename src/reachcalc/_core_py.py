"""The machine kernel: the program encoding, the interpreter, the
length-class scan, the target's prefix table and the target-prefix walk.

This module owns the encoding (the opcode table _OPCODES, DOUBLE, HALT, the
rank order) and the length class: its size, its rank order and the step cap
DEFAULT_MAX_STEPS.  The machine is straight-line, so a program of n opcodes
runs exactly n steps and the step cap bounds the opcode count;
check_step_cap is the one place that checks it.
reachcalc.machine and reachcalc.search call these directly.  Programs
arriving here are validated (even, terminal HALT only).  The length-class
scan runs only the programs led by the emit of the target's first bit and
ending, before HALT, in the emit of its last bit or, for a square target
ww, in a DOUBLE: one ninth of the class, two ninths for a square;
reachcalc.machine takes the DOUBLE-led hits from the class below.  The
kernel also owns each target's prefix table, built once per target: its
shortest class bounds both the enumeration scans and the walk.

The rank of a program of n opcodes is its body read as n - 1 base-3
digits, most significant first, with 00 = 0, 01 = 1 and 10 = 2; rank order
is lexicographic bit order.
"""

from __future__ import annotations

import functools
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
    """The emit-led programs of exactly n_opcodes opcodes printing `target`,
    in rank order: the lone HALT when n_opcodes is 1 and the target is empty.

    A program's first emitted bit is its output's first bit, so for
    n_opcodes >= 2 and a non-empty target only the programs led by the emit
    of target[0] can hit; in every other case no emit-led program prints the
    target.  The last opcode before HALT finishes the output: an emit must
    append target[-1], and a DOUBLE prints ww, so it can hit only when the
    target is a square ww.  So class n >= 3 runs 3**(n - 3) candidates,
    twice that for a square; the ending is the last rank digit, so running
    it innermost keeps rank order.  Every candidate runs at the target's
    width: the output only grows, so a program stopped for outgrowing the
    target could never have printed it.  The enumeration budget keeps
    n_opcodes far below DEFAULT_MAX_STEPS.
    """
    if n_opcodes < 2 or not target:
        return [HALT] if n_opcodes == 1 and not target else []
    lead, width = _OPCODES[target[0] == "1"], len(target)
    if n_opcodes == 2:
        return [lead + HALT] if width == 1 else []  # it prints target[0]
    ends = [_OPCODES[target[-1] == "1"] + HALT]
    if target[: width // 2] * 2 == target:
        ends.append(DOUBLE + HALT)
    candidates = (lead + "".join(body) + end
                  for body in product(_OPCODES, repeat=n_opcodes - 3) for end in ends)
    return [bits for bits in candidates if run_bits(bits, width) == target]


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


@functools.lru_cache(maxsize=1)
def _prefix_table(target: str) -> tuple[tuple[bool, ...], tuple[int, ...]]:
    """For each prefix length s = 0..len(target): whether a double takes the
    output target[:s] to target[:2s], and the fewest opcodes that take
    target[:s] to target, HALT not counted.

    A program prints the target only if its output stays a prefix of it, so
    these lengths are the states of every hit.  For s > 0 every edge goes
    forward (emit s -> s+1, double s -> 2s), and the double at s = 0 is the
    no-op loop, so one backward pass from s = len(target) counts the fewest
    opcodes.  A search asks for one target's classes in turn, so the last
    table is kept.
    """
    size = len(target)
    doubles = tuple(2 * s <= size and target[s : 2 * s] == target[:s] for s in range(size + 1))
    fewest = [0] * (size + 1)
    for s in reversed(range(size)):
        steps = fewest[s + 1]
        if s and doubles[s]:
            steps = min(steps, fewest[2 * s])
        fewest[s] = steps + 1
    return doubles, tuple(fewest)


def shortest_class(target: str) -> int:
    """The opcode count of the shortest programs printing target: every
    class below it is empty, and every class from it on holds a hit."""
    return _prefix_table(target)[1][0] + 1


def class_hit_ranks(n_opcodes: int, target: str, *, stop: int | None = None) -> list[int]:
    """Ascending ranks of the programs of n_opcodes opcodes that print
    `target`, only those below `stop` when it is given.  A class past the
    step cap raises ResourceExceeded.

    The output only grows, so a program hits only if its output stays a
    prefix of the target at every step.  The walk tracks the prefix length
    and tries the opcodes in rank order, so its hits come out sorted and a
    class costs its hits, not its 3**(n_opcodes - 1) candidates.  It reads
    the doubles from the target's prefix table and drops every node with
    fewer opcodes left than its state needs, so a class with no hit costs
    one node.
    """
    size = len(target)
    check_step_cap(n_opcodes)
    if n_opcodes < 1:
        return []
    doubles, fewest = _prefix_table(target)
    hits: list[int] = []
    # (prefix length, rank of the opcodes taken, free opcodes left); a node's
    # subtree holds the ranks rank * 3**left up to the next multiple.
    stack = [(0, 0, n_opcodes - 1)]
    while stack:
        state, rank, left = stack.pop()
        if stop is not None and rank * 3**left >= stop:
            break  # every node still on the stack lies above this one
        if left < fewest[state]:
            continue  # too short to reach the target
        if state and left > size - state:
            continue  # a non-empty output grows with every opcode: too long
        if left == 0:
            hits.append(rank)  # fewest[state] == 0 only at the full target
            continue
        # Push the double (digit 2) first so the emit (digit 0 or 1) pops first;
        # the double at state 0 is the no-op on the empty output.
        if doubles[state]:
            stack.append((2 * state, 3 * rank + 2, left - 1))
        if state < size:
            stack.append((state + 1, 3 * rank + (target[state] == "1"), left - 1))
    return hits
