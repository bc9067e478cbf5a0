"""A prefix-free toy machine and exhaustive solution enumeration.

Programs are bit strings read two bits at a time:

    00  EMIT0    append '0' to the output
    01  EMIT1    append '1' to the output
    10  DOUBLE   append a copy of the current output (no-op when empty)
    11  HALT     stop

A valid program has even length >= 2 and contains HALT exactly once, as its
final opcode.  That terminal-HALT rule makes the valid set prefix-free: any
proper prefix ends in a non-HALT opcode and is therefore itself invalid.

A "problem" is a target bit string rho of any length; the solution set of
rho is every valid program up to a length cap whose output equals rho.
Enumeration goes by length class, lexicographic within a class.  Programs
run, and length classes are scanned, on the pure-Python kernel in
reachcalc._core_py.  It owns the encoding above and the length class: its
size and rank order.  Its DEFAULT_MAX_STEPS, re-exported here, caps only the
classes a search scans.
Enumeration builds each class by one rule: its emit-led hits, then DOUBLE +
each hit of the class below, since a DOUBLE on the empty output is a no-op.
A program's first emitted bit is its output's first bit, and its last
opcode before HALT emits rho's last bit or, for a square rho = ww, doubles
w.  So only the programs led by the emit of rho's first bit and ending in
such an opcode are scanned, one ninth of the class (two ninths for a
square), and only in the classes from the shortest one, which the kernel's
prefix table gives, up to len(rho) + 1; past that class no emit-led program
hits.

The machine is straight-line: a program of n opcodes runs exactly n steps,
and its output never shrinks.  So a program's step count is its own length,
and run caps only the output, the one thing DOUBLE can blow up.  Enumeration
and search run programs at the target's width, so a candidate stops as soon
as its output outgrows the target, and they count as solutions only programs
run accepts.  The gate 2^max_len <= DEFAULT_ENUM_BUDGET belongs to
enumeration and the reports built on it; kolmogorov_upper enumerates nothing
and takes K(rho) from the prefix table, for a target of any length.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from enum import Enum
from itertools import chain, repeat

from . import _core_py
from ._core_py import DEFAULT_MAX_STEPS, DOUBLE, HALT, iter_valid_programs
from ._record import Record
from .entropy import FiniteDistribution, _landauer_unit, entropy_to_work
from .entropy import entropy_variation  # unused; reachbench/layers.py wraps it here
from .errors import (
    DegenerateSetWarning,
    DomainError,
    EmptySetError,
    InvalidProgram,
    ResourceExceeded,
)
from .lambertw import BranchChoice
from .reachability import ReachabilityRecord, reach_from_variation

# Kept only for the benchmark: reachbench/run.py records CORE_BACKEND with
# each result, and reachbench/layers.py reads _core (no compiled kernel).
CORE_BACKEND = "pure"
_core = None

__all__ = [
    "DEFAULT_MAX_LEN",
    "DEFAULT_ENUM_BUDGET",
    "DEFAULT_MAX_STEPS",
    "DEFAULT_MAX_OUTPUT_BITS",
    "Scheme",
    "Problem",
    "Program",
    "SolutionSet",
    "ComplexityBound",
    "run",
    "iter_valid_programs",
    "enumerate_solutions",
    "kolmogorov_upper",
    "reachability_report",
    "literal_program",
]

DEFAULT_MAX_LEN = 24
DEFAULT_ENUM_BUDGET = 2**24
DEFAULT_MAX_OUTPUT_BITS = 64


class Scheme(Enum):
    """Weighting scheme over a solution set."""

    UNIFORM = "uniform"
    LENGTH_WEIGHTED = "lengthweighted"


def _check_even_length(name: str, value: int, least: int) -> None:
    if value < least or value % 2:
        raise DomainError(f"{name} must be even and >= {least}, got {value!r}")


def _validate_program_bits(bits: str) -> None:
    if not bits:
        raise InvalidProgram("empty bit string")
    if len(bits) % 2:
        raise InvalidProgram(f"program length must be even, got {len(bits)} bits")
    if set(bits) - {"0", "1"}:
        raise InvalidProgram(f"program must be over {{0,1}}, got {bits!r}")
    opcodes = [bits[i : i + 2] for i in range(0, len(bits), 2)]
    if opcodes[-1] != HALT:
        raise InvalidProgram(f"program must end with the HALT opcode {HALT}")
    if HALT in opcodes[:-1]:
        raise InvalidProgram("HALT may only appear as the final opcode")


class Program(Record):
    """A validated program of the toy machine."""

    def __init__(self, bits: str):
        _validate_program_bits(bits)
        self.__dict__["bits"] = bits

    @property
    def length(self) -> int:
        return len(self.bits)

    @property
    def opcode_count(self) -> int:
        return len(self.bits) // 2


class Problem(Record):
    """A target output string rho: any bit string, of any length.

    Enumeration and search run candidates at the target's own width,
    len(target).
    """

    def __init__(self, target: str):
        if set(target) - {"0", "1"}:
            raise DomainError(f"target must be over {{0,1}}, got {target!r}")
        self.__dict__["target"] = target

    @property
    def length(self) -> int:
        return len(self.target)


class SolutionSet(Record):
    """Every solution of a problem up to the length cap, by length class.

    classes holds one (n_opcodes, bits) pair per non-empty class, shortest
    first, and bits holds that class's programs in lexicographic order.
    Under either scheme every program of a class has one weight, so the
    set keeps one weight per class; programs and weights (None only for an
    empty set) list them per program, in (length, lexicographic) order.
    """

    def __init__(self, problem: Problem, classes: tuple[tuple[int, tuple[str, ...]], ...],
                 scheme: Scheme):
        self.__dict__.update(problem=problem, classes=classes, scheme=scheme)

    @property
    def programs(self) -> tuple[Program, ...]:
        return tuple(Program(bits) for _, hits in self.classes for bits in hits)

    @property
    def weights(self) -> FiniteDistribution | None:
        if not self.classes:
            return None
        weights = _class_weights(self.classes, self.scheme)
        return FiniteDistribution([w for (_, hits), w in zip(self.classes, weights) for _ in hits])

    def __len__(self) -> int:
        return sum(len(hits) for _, hits in self.classes)

    def lengths(self) -> tuple[int, ...]:
        return tuple(2 * n for n, hits in self.classes for _ in hits)


class ComplexityBound(Record):
    """Upper bound on program complexity: the shortest solution found."""

    def __init__(self, bits: int, witness: Program):
        self.__dict__.update(bits=bits, witness=witness)


def _as_problem(rho: Problem | str) -> Problem:
    return rho if isinstance(rho, Problem) else Problem(rho)


def run(program: Program | str, *, max_output_bits: int = DEFAULT_MAX_OUTPUT_BITS) -> str:
    """Execute a program and return its output bits.

    A program runs one step per opcode, so its length bounds its run.
    Raises InvalidProgram for malformed bit strings, and ResourceExceeded
    for a program whose output outgrows max_output_bits, the one guard
    against DOUBLE's exponential growth.
    """
    prog = program if isinstance(program, Program) else Program(program)
    if max_output_bits < 1:
        raise DomainError(f"max_output_bits must be positive, got {max_output_bits!r}")
    out = _core_py.run_bits(prog.bits, max_output_bits)
    if out is None:
        raise ResourceExceeded(f"output cap {max_output_bits} bits breached by {prog.bits!r}")
    return out


def literal_program(rho: Problem | str) -> Program:
    """The EMIT...HALT transcription of rho, one EMIT per bit; its length
    2*l(rho) + 2 is the universal upper bound on solution size."""
    return Program(_core_py.literal_bits(_as_problem(rho).target))


def _class_hits(problem: Problem, max_len: int) -> Iterator[list[str]]:
    """Each length class's solutions of problem, shortest class first; max_len
    and the gate DEFAULT_ENUM_BUDGET are checked when iteration starts.

    Class n's hits are its emit-led hits, then DOUBLE + each hit of class
    n - 1.  A DOUBLE on the empty output is a no-op, and DOUBLE, the highest
    rank digit, ranks after every emit and keeps rank order.  The kernel's
    scan_length_class gives the emit-led hits: for n >= 3 it runs only the
    programs led by the emit of target[0], since the first emitted bit is
    the output's first bit, and ending before HALT in the emit of
    target[-1] or, for a square target ww, a DOUBLE: 3**(n - 3) programs,
    twice that for a square; for n = 2, emit(target[0]) + HALT when the
    target is one bit; for n = 1, the lone HALT.  It is called only in the
    classes from the shortest one up to len(target) + 1.  Every class
    below the shortest is empty, and an emit-led program of n >=
    len(target) + 2 opcodes prints at least n - 1 bits, since every later
    opcode but HALT adds a bit, so it misses.
    """
    _check_even_length("max_len", max_len, 0)
    if max_len >= DEFAULT_ENUM_BUDGET.bit_length():  # i.e. 2**max_len > DEFAULT_ENUM_BUDGET
        raise ResourceExceeded(
            f"2^{max_len} candidate strings exceed the enumeration budget {DEFAULT_ENUM_BUDGET}"
        )
    target = problem.target
    first = _core_py.shortest_class(target)
    hits: list[str] = []
    for n_opcodes in range(1, max_len // 2 + 1):
        scanned = (_core_py.scan_length_class(n_opcodes, target)
                   if first <= n_opcodes <= len(target) + 1 else [])
        hits = scanned + [DOUBLE + bits for bits in hits]
        yield hits


def enumerate_solutions(
    rho: Problem | str,
    max_len: int = DEFAULT_MAX_LEN,
    *,
    scheme: Scheme = Scheme.LENGTH_WEIGHTED,
) -> SolutionSet:
    """Every valid program of length <= max_len whose output equals rho.

    The set holds them by length class, ordered by (length, lexicographic),
    as the kernel finds them: they are valid by construction, so none is
    checked again.  Programs run at the target's width; a program that would
    breach a cap is not a solution.  Raises ResourceExceeded when 2^max_len
    exceeds DEFAULT_ENUM_BUDGET.
    """
    _check_scheme(scheme)
    problem = _as_problem(rho)
    classes = tuple((n, tuple(hits))
                    for n, hits in enumerate(_class_hits(problem, max_len), start=1) if hits)
    return SolutionSet(problem, classes, scheme)


def kolmogorov_upper(rho: Problem | str) -> ComplexityBound:
    """Length of the shortest solution of rho, with witness.

    The length is K(rho) on this machine, twice the shortest class that the
    kernel's prefix table gives, so nothing is enumerated and every target
    has an answer.  Ties go to the lexicographically smallest program, the
    first hit of the target-prefix walk in that class.
    """
    target = _as_problem(rho).target
    n_opcodes = _core_py.shortest_class(target)
    first = _core_py.class_hit_ranks(n_opcodes, target)[0]
    return ComplexityBound(2 * n_opcodes, Program(_core_py.rank_bits(n_opcodes, first)))


def _check_scheme(scheme: Scheme) -> None:
    if not isinstance(scheme, Scheme):
        raise DomainError(f"unknown scheme {scheme!r}")


def _class_weights(classes, scheme: Scheme) -> list[float]:
    """One weight per class: 1/m, or 2^-length over the exact sum of c 2^-length
    (each term is exact), the same floats as weighting each program."""
    if scheme is Scheme.UNIFORM:
        m = sum(len(hits) for _, hits in classes)
        return [1.0 / m for _ in classes]
    raw = [2.0 ** (-2 * n) for n, _ in classes]  # Scheme.LENGTH_WEIGHTED
    total = math.fsum(len(hits) * r for (_, hits), r in zip(classes, raw))
    return [r / total for r in raw]


def _report_classes(rho: Problem | str, max_len: int, scheme: Scheme, temperature: float,
                    branch: BranchChoice) -> list[tuple]:
    """reachability_report's values, one row per length class: (programs, p,
    variation, reachability, energy, normalized), in the records' order.

    temperature and branch are checked before anything is enumerated.
    Under both schemes a class's programs share p, so each distinct p gets
    one (variation, reachability, energy): at most max_len / 2 inversions
    of W.  The closed-form variation -p log2 p is 0 only for a one-program
    set, whose branch-limit reachability is warned about once.  Records of
    one class share their reachability, so a stable sort of the classes by
    descending reachability gives the stable sort of the records.
    """
    problem = _as_problem(rho)
    _landauer_unit(temperature)  # validates temperature
    if not isinstance(branch, BranchChoice):
        raise DomainError(f"branch must be a BranchChoice, got {branch!r}")
    classes = enumerate_solutions(problem, max_len, scheme=scheme).classes
    if not classes:
        raise EmptySetError(f"no solutions of length <= {max_len} for target {problem.target!r}")
    per_weight: dict[float, tuple[float, float, float]] = {}
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSetWarning)
        for (_, hits), p in zip(classes, _class_weights(classes, scheme)):
            if p not in per_weight:
                h = -p * math.log2(p) + 0.0
                per_weight[p] = (h, reach_from_variation(h, branch),
                                 entropy_to_work(h, temperature))
            rows.append((hits, p, *per_weight[p]))
    # The sum over programs, not over classes: fsum(c * P) would round c * P.
    total = math.fsum(chain.from_iterable(repeat(row[3], len(row[0])) for row in rows))
    if rows[0][2] == 0.0:  # a one-program set
        warnings.warn(
            "deterministic solution set: reachability reported as the branch limit",
            DegenerateSetWarning,
            stacklevel=3,
        )
    rows.sort(key=lambda row: -row[3])
    return [(*row, row[3] / total if total > 0.0 else 1.0) for row in rows]


def reachability_report(
    rho: Problem | str,
    max_len: int = DEFAULT_MAX_LEN,
    *,
    scheme: Scheme = Scheme.LENGTH_WEIGHTED,
    temperature: float = 300.0,
    branch: BranchChoice = BranchChoice.LOWER,
) -> list[ReachabilityRecord]:
    """Per-solution reachability records for rho, sorted by descending P.

    The solutions are enumerate_solutions(rho, max_len, scheme=scheme), run
    at the target's width under the gate DEFAULT_ENUM_BUDGET; temperature
    and branch are checked first.  Each record carries the scheme weight
    p_i, the entropy variation it induces, the branch reachability, the
    Landauer energy k T ln2 * h, and the normalized measure P_i / sum(P).
    The programs of one length class share every value but program_id,
    which are computed once per class.  A single-program set has zero
    variation; its reachability is the branch limit (with a warning) and
    its normalized measure is 1 by convention (the only event).
    """
    return [
        ReachabilityRecord(program_id=bits, p_i=p, variation=h, reachability=reach,
                           branch=branch, energy=energy, temperature=temperature,
                           normalized=normalized, degenerate=h == 0.0)
        for hits, p, h, reach, energy, normalized
        in _report_classes(rho, max_len, scheme, temperature, branch)
        for bits in hits
    ]
