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
classes are scanned, on the pure-Python kernel in reachcalc._core_py, which
also owns the encoding above (the opcode table, HALT and the rank order);
CORE_BACKEND names it for the `--version` line.

The machine is straight-line: a program of n opcodes runs exactly n steps.
run takes step and output caps; enumeration and search run programs at
DEFAULT_MAX_STEPS and problem.max_bits, so they count as solutions only
programs run accepts.  Enumeration refuses 2^max_len > DEFAULT_ENUM_BUDGET.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from enum import Enum

from . import _core_py
from ._core_py import HALT, iter_valid_programs
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
DEFAULT_MAX_STEPS = 10_000
DEFAULT_MAX_OUTPUT_BITS = 64


class Scheme(Enum):
    """Weighting scheme over a solution set."""

    UNIFORM = "uniform"
    LENGTH_WEIGHTED = "lengthweighted"


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
    """A target output string rho, at most max_bits long."""

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


def run(
    program: Program | str,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_output_bits: int = DEFAULT_MAX_OUTPUT_BITS,
) -> str:
    """Execute a program and return its output bits.

    Raises InvalidProgram for malformed bit strings and ResourceExceeded
    when the step or output cap is breached.
    """
    prog = program if isinstance(program, Program) else Program(program)
    if max_steps < 1 or max_output_bits < 1:
        raise DomainError(
            f"limits must be positive, got max_steps={max_steps!r} "
            f"max_output_bits={max_output_bits!r}"
        )
    status, out = _core_py.run_bits(prog.bits, max_steps, max_output_bits)
    if status == _core_py.STEP_CAP:
        raise ResourceExceeded(f"step cap {max_steps} breached by {prog.bits!r}")
    if status == _core_py.OUTPUT_CAP:
        raise ResourceExceeded(f"output cap {max_output_bits} bits breached by {prog.bits!r}")
    return out


def literal_program(rho: Problem | str) -> Program:
    """The EMIT...HALT transcription of rho: one EMIT per bit, then HALT.

    Its length 2*l(rho) + 2 is the universal upper bound on solution size.
    """
    problem = _as_problem(rho)
    body = "".join(_core_py._OPCODES[int(b)] for b in problem.target)
    return Program(body + HALT)


def _class_hits(problem: Problem, max_len: int) -> Iterator[list[str]]:
    """Each length class's solutions of problem, shortest class first.

    max_len and the gate DEFAULT_ENUM_BUDGET are checked when iteration
    starts; the gate keeps every class far below DEFAULT_MAX_STEPS opcodes.
    """
    if max_len < 0 or max_len % 2:
        raise DomainError(f"max_len must be even and >= 0, got {max_len!r}")
    if 2**max_len > DEFAULT_ENUM_BUDGET:
        raise ResourceExceeded(
            f"2^{max_len} candidate strings exceed the enumeration budget {DEFAULT_ENUM_BUDGET}"
        )
    for n_opcodes in range(1, max_len // 2 + 1):
        yield _core_py.scan_length_class(n_opcodes, problem.target, problem.max_bits)


def enumerate_solutions(
    rho: Problem | str,
    max_len: int = DEFAULT_MAX_LEN,
    *,
    scheme: Scheme = Scheme.LENGTH_WEIGHTED,
) -> SolutionSet:
    """Every valid program of length <= max_len whose output equals rho.

    Ordered by (length, lexicographic) and run at problem.max_bits; a
    program that would breach a cap is not a solution.  Raises
    ResourceExceeded when 2^max_len exceeds DEFAULT_ENUM_BUDGET.
    """
    problem = _as_problem(rho)
    programs = tuple(Program(bits) for hits in _class_hits(problem, max_len) for bits in hits)
    weights = _distribution_for(programs, scheme) if programs else None
    return SolutionSet(problem, programs, weights, scheme)


def kolmogorov_upper(rho: Problem | str, max_len: int = DEFAULT_MAX_LEN) -> ComplexityBound | None:
    """Length of the shortest solution of rho within max_len, with witness.

    Ties go to the lexicographically smallest program.  None when no
    solution exists within the cap.
    """
    problem = _as_problem(rho)
    for hits in _class_hits(problem, max_len):
        if hits:
            witness = Program(hits[0])
            return ComplexityBound(witness.length, witness)
    return None


def _distribution_for(programs: tuple[Program, ...], scheme: Scheme) -> FiniteDistribution:
    m = len(programs)
    if scheme is Scheme.UNIFORM:
        return FiniteDistribution([1.0 / m] * m)
    if scheme is Scheme.LENGTH_WEIGHTED:
        raw = [2.0 ** -p.length for p in programs]
        total = math.fsum(raw)
        return FiniteDistribution([r / total for r in raw])
    raise DomainError(f"unknown scheme {scheme!r}")


def solution_distribution(solutions: SolutionSet, scheme: Scheme) -> FiniteDistribution:
    """Weights over a solution set: uniform, or proportional to 2^-length."""
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
    at problem.max_bits under the gate DEFAULT_ENUM_BUDGET.  Each record
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
    # Closed-form variation -p log2 p; it is 0 only for a one-program set,
    # whose branch-limit reachability is warned about once below.
    variations = [-p * math.log2(p) + 0.0 for p in ps]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSetWarning)
        reaches = [reach_from_variation(h, branch) for h in variations]
    total = math.fsum(reaches)
    records = [
        ReachabilityRecord(
            program_id=prog.bits,
            p_i=p,
            variation=h,
            reachability=reach,
            branch=branch,
            energy=entropy_to_work(h, temperature),
            temperature=temperature,
            normalized=(reach / total) if total > 0.0 else 1.0,
            degenerate=h == 0.0,
        )
        for prog, p, h, reach in zip(solutions.programs, ps, variations, reaches)
    ]
    if any(r.degenerate for r in records):
        warnings.warn(
            "deterministic solution set: reachability reported as the branch limit",
            DegenerateSetWarning,
            stacklevel=2,
        )
    records.sort(key=lambda r: -r.reachability)
    return records
