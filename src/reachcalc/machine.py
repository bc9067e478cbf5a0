"""A prefix-free toy machine and exhaustive solution enumeration.

Programs are bit strings read two bits at a time:

    00  EMIT0    append '0' to the output
    01  EMIT1    append '1' to the output
    10  DOUBLE   append a copy of the current output (no-op when empty)
    11  HALT     stop

A valid program has even length >= 2 and contains HALT exactly once, as its
final opcode.  That terminal-HALT rule makes the valid set prefix-free: any
proper prefix ends in a non-HALT opcode and is therefore itself invalid.

A "problem" is a target bit string rho; the solution set of rho is every
valid program up to a length cap whose output equals rho.  Enumeration goes
by length class, lexicographic within a class.  Programs run, and length
classes are scanned, on the pure-Python kernel in reachcalc._core_py.  It
owns the encoding above and the length class: its size, rank order and step
cap DEFAULT_MAX_STEPS (re-exported here).  CORE_BACKEND names it for --version.
Enumeration scans the classes from the shortest one, which the kernel's
prefix table gives, up to len(rho) + 1, and builds each larger class from
the class below: past that class every solution starts with a DOUBLE on the
empty output, a no-op.

The machine is straight-line: a program of n opcodes runs exactly n steps,
and its output never shrinks.  So the step cap is a bound on the opcode
count, which run checks before it runs a program; run also takes an output
cap.  Enumeration and search run programs at the target's width, so a
candidate stops as soon as its output outgrows the target, and they count
as solutions only programs run accepts.  The gate 2^max_len <=
DEFAULT_ENUM_BUDGET belongs to enumeration and the reports built on it;
kolmogorov_upper enumerates nothing and takes K(rho) from the prefix table.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from enum import Enum

from . import _core_py
from ._core_py import DEFAULT_MAX_STEPS, DOUBLE, HALT, iter_valid_programs
from ._record import Record
from .entropy import FiniteDistribution, entropy_to_work
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

CORE_BACKEND = "pure"
_core = None  # no compiled kernel; reachbench/layers.py reads this name

__all__ = [
    "CORE_BACKEND",
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
    "solution_distribution",
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
    """A target output string rho, at most max_bits long.

    max_bits bounds the target only: enumeration and search run candidates
    at the target's own width, len(target).
    """

    def __init__(self, target: str, max_bits: int = DEFAULT_MAX_OUTPUT_BITS):
        if set(target) - {"0", "1"}:
            raise DomainError(f"target must be over {{0,1}}, got {target!r}")
        if len(target) > max_bits:
            raise DomainError(f"target of {len(target)} bits exceeds the {max_bits}-bit maximum")
        self.__dict__.update(target=target, max_bits=max_bits)

    @property
    def length(self) -> int:
        return len(self.target)


class SolutionSet(Record):
    """Every solution of a problem up to the length cap, with weights.

    Programs are ordered by (length, lexicographic); weights is None only
    for an empty set.
    """

    def __init__(self, problem: Problem, programs: tuple[Program, ...],
                 weights: FiniteDistribution | None, scheme: Scheme):
        self.__dict__.update(problem=problem, programs=programs, weights=weights, scheme=scheme)

    def __len__(self) -> int:
        return len(self.programs)

    def lengths(self) -> tuple[int, ...]:
        return tuple(p.length for p in self.programs)


class ComplexityBound(Record):
    """Upper bound on program complexity: the shortest solution found."""

    def __init__(self, bits: int, witness: Program):
        self.__dict__.update(bits=bits, witness=witness)


def _as_problem(rho: Problem | str) -> Problem:
    return rho if isinstance(rho, Problem) else Problem(rho)


def run(program: Program | str, *, max_output_bits: int = DEFAULT_MAX_OUTPUT_BITS) -> str:
    """Execute a program and return its output bits.

    Raises InvalidProgram for malformed bit strings, and ResourceExceeded
    for a program of more than DEFAULT_MAX_STEPS opcodes (one step each)
    or one whose output outgrows max_output_bits.
    """
    prog = program if isinstance(program, Program) else Program(program)
    if max_output_bits < 1:
        raise DomainError(f"max_output_bits must be positive, got {max_output_bits!r}")
    _core_py.check_step_cap(prog.opcode_count, prog.bits)
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

    It scans only the classes from the shortest one up to len(target) + 1;
    every class below the shortest is empty.  It builds each larger class
    from the class below.  A program of n >= len(target) + 2 opcodes that
    starts with an emit prints at least n - 1 bits, since every later
    opcode but HALT adds a bit, so it misses; every hit starts with a
    DOUBLE on the empty output, a no-op.  So class n's hits are DOUBLE + each
    hit of class n - 1, and DOUBLE, the highest rank digit, keeps rank order.
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
        if n_opcodes > len(target) + 1:
            hits = [DOUBLE + bits for bits in hits]
        elif n_opcodes >= first:
            hits = _core_py.scan_length_class(n_opcodes, target)
        yield hits


def enumerate_solutions(
    rho: Problem | str,
    max_len: int = DEFAULT_MAX_LEN,
    *,
    scheme: Scheme = Scheme.LENGTH_WEIGHTED,
) -> SolutionSet:
    """Every valid program of length <= max_len whose output equals rho.

    Ordered by (length, lexicographic) and run at the target's width; a
    program that would breach a cap is not a solution.  Raises
    ResourceExceeded when 2^max_len exceeds DEFAULT_ENUM_BUDGET.
    """
    _check_scheme(scheme)
    problem = _as_problem(rho)
    programs = tuple(Program(bits) for hits in _class_hits(problem, max_len) for bits in hits)
    weights = _distribution_for(programs, scheme) if programs else None
    return SolutionSet(problem, programs, weights, scheme)


def kolmogorov_upper(rho: Problem | str, max_len: int = DEFAULT_MAX_LEN) -> ComplexityBound | None:
    """Length of the shortest solution of rho, with witness; None when that
    length exceeds max_len.

    The length is K(rho) on this machine, twice the shortest class that the
    kernel's prefix table gives, so nothing is enumerated and max_len only
    caps the answer.  Ties go to the lexicographically smallest program,
    the first hit of the target-prefix walk in that class.
    """
    target = _as_problem(rho).target
    _check_even_length("max_len", max_len, 0)
    n_opcodes = _core_py.shortest_class(target)
    if 2 * n_opcodes > max_len:
        return None
    first = _core_py.class_hit_ranks(n_opcodes, target)[0]
    return ComplexityBound(2 * n_opcodes, Program(_core_py.rank_bits(n_opcodes, first)))


def _check_scheme(scheme: Scheme) -> None:
    if not isinstance(scheme, Scheme):
        raise DomainError(f"unknown scheme {scheme!r}")


def _distribution_for(programs: tuple[Program, ...], scheme: Scheme) -> FiniteDistribution:
    m = len(programs)
    if scheme is Scheme.UNIFORM:
        return FiniteDistribution([1.0 / m] * m)
    raw = [2.0 ** -p.length for p in programs]  # Scheme.LENGTH_WEIGHTED
    total = math.fsum(raw)
    return FiniteDistribution([r / total for r in raw])


def solution_distribution(solutions: SolutionSet, scheme: Scheme) -> FiniteDistribution:
    """Weights over a solution set: uniform, or proportional to 2^-length."""
    _check_scheme(scheme)
    if not solutions.programs:
        raise EmptySetError("cannot weight an empty solution set")
    return _distribution_for(solutions.programs, scheme)


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
    at the target's width under the gate DEFAULT_ENUM_BUDGET.  Each record
    carries the scheme weight p_i, the entropy variation it induces, the
    branch reachability, the Landauer energy k T ln2 * h, and the
    normalized measure P_i / sum(P).  A single-program set has zero
    variation; its reachability is the branch limit (with a warning) and
    its normalized measure is 1 by convention (the only event).
    """
    solutions = enumerate_solutions(rho, max_len, scheme=scheme)
    if not solutions.programs:
        raise EmptySetError(
            f"no solutions of length <= {max_len} for target {solutions.problem.target!r}"
        )
    ps = solutions.weights.probabilities
    # Under both schemes the solutions of one length share p_i, so each
    # distinct weight gets one (variation, reachability, energy): at most
    # max_len / 2 inversions of W.  The closed-form variation -p log2 p is 0
    # only for a one-program set, whose branch-limit reachability is warned
    # about once below.
    per_weight: dict[float, tuple[float, float, float]] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSetWarning)
        for p in dict.fromkeys(ps):
            h = -p * math.log2(p) + 0.0
            per_weight[p] = (h, reach_from_variation(h, branch), entropy_to_work(h, temperature))
    total = math.fsum(per_weight[p][1] for p in ps)
    records = []
    for prog, p in zip(solutions.programs, ps):
        h, reach, energy = per_weight[p]
        records.append(ReachabilityRecord(
            program_id=prog.bits,
            p_i=p,
            variation=h,
            reachability=reach,
            branch=branch,
            energy=energy,
            temperature=temperature,
            normalized=(reach / total) if total > 0.0 else 1.0,
            degenerate=h == 0.0,
        ))
    if any(r.degenerate for r in records):
        warnings.warn(
            "deterministic solution set: reachability reported as the branch limit",
            DegenerateSetWarning,
            stacklevel=2,
        )
    records.sort(key=lambda r: -r.reachability)
    return records
