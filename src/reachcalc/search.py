"""Demiurge search: find short solutions, paying Landauer work per bit saved.

Three deterministic policies over the toy machine's size classes:

* ExhaustiveBySize scans one size class fully (default: the literal
  program's class) and keeps the first solution it meets.
* SizeDescending starts from a first found solution (default: the literal
  program, the transcription every problem carries with it) and re-scans
  the classes s-2, s-4, ... until a class yields nothing, at which point no
  smaller solution exists.  Each step down saves exactly 2 bits and is
  charged k T ln2 joules per bit erased.
* ReachabilityGreedy scans the classes 2, 4, ..., max_len in ascending
  size and stops at the first hit, the order of Levin search: every
  smaller class is already drained by then, so the first solution found
  is a shortest one and there is nothing left to rank.

Budgets cap the number of programs run and the energy charged; running out
is not an error, the trace just reports budget_exhausted.

A class is addressed by rank (see reachcalc._core_py): the target-prefix
walk finds its hits directly, and the misses between them are counted, not
run.  A search therefore costs its hits, not the programs it reports as
run, and the trace rebuilds the programs only when `steps` asks for them.
The walk reads the target's prefix table, built once per target, so each
class below the shortest solution costs one node.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from enum import Enum
from itertools import islice

from . import _core_py  # reachbench/layers.py wraps search._core_py
from ._record import Record
from .entropy import _landauer_unit, entropy_to_work
from .errors import DomainError, InvalidPolicy
from .machine import (
    DEFAULT_MAX_LEN,
    Problem,
    Program,
    _as_problem,
    _check_even_length,
    iter_valid_programs,  # reachbench/layers.py wraps search.iter_valid_programs
    literal_program,
)
from .reachability import reach_from_variation  # unused; reachbench/layers.py wraps it here

__all__ = ["SearchPolicy", "Budget", "SearchTrace", "demiurge_search"]


class SearchPolicy(Enum):
    EXHAUSTIVE_BY_SIZE = "exhaustivebysize"
    SIZE_DESCENDING = "sizedescending"
    REACHABILITY_GREEDY = "reachabilitygreedy"


class Budget(Record):
    """Program-count and energy caps for one search."""

    def __init__(self, programs: int = 100_000, energy: float = math.inf):
        if isinstance(programs, bool) or not isinstance(programs, int):
            raise DomainError(f"program budget must be an int, got {programs!r}")
        if programs < 1:
            raise DomainError(f"program budget must be >= 1, got {programs!r}")
        if not energy > 0.0 or math.isnan(energy):
            raise DomainError(f"energy budget must be > 0 J, got {energy!r}")
        self.__dict__.update(programs=programs, energy=energy)


#: One class's share of a search, (n_opcodes, count, hit_ranks): the first
#: `count` programs of the class in rank order ran, and hit_ranks hit.
#: A search scans each class at most once, always from its first program.
Segment = tuple[int, int, tuple[int, ...]]


class SearchTrace(Record):
    """What a search did: the programs it ran, in order, and what it cost.

    The trace keeps one segment per class scanned, with the ranks of its
    hits; `steps` and `iter_steps` rebuild the programs run from them on
    demand, so a trace costs its hits, not its programs.
    """

    def __init__(self, policy: SearchPolicy, segments: tuple[Segment, ...], programs_run: int,
                 energy_charged: float, bits_reduced: int, best_found: Program | None,
                 temperature: float, budget_exhausted: bool):
        self.__dict__.update(policy=policy, segments=segments, programs_run=programs_run,
                             energy_charged=energy_charged, bits_reduced=bits_reduced,
                             best_found=best_found, temperature=temperature,
                             budget_exhausted=budget_exhausted)

    def iter_steps(self) -> Iterator[tuple[str, str]]:
        """Yield (program bits, "hit" | "miss") for every program run, in order."""
        for n_opcodes, count, hit_ranks in self.segments:
            hits = set(hit_ranks)
            for rank, bits in enumerate(islice(iter_valid_programs(n_opcodes), count)):
                yield bits, "hit" if rank in hits else "miss"

    @property
    def steps(self) -> tuple[tuple[str, str], ...]:
        return tuple(self.iter_steps())


class _Session:
    """Mutable bookkeeping shared by the policies."""

    def __init__(self, problem: Problem, budget: Budget, temperature: float):
        self.problem = problem
        self.budget = budget
        self.temperature = temperature
        self.segments: list[Segment] = []
        self.programs_run = 0
        self.best: Program | None = None
        self.bits_reduced = 0
        self.budget_exhausted = False

    def scan(self, size: int, until_hit: bool) -> Program | None:
        """Run the programs of `size` bits in lex order; return the first hit.

        The scan stops after the first hit when until_hit is set, else at the
        end of the class; in both cases at the end of the program budget,
        which then counts as exhausted if the class had programs left.  The
        hits come from the target-prefix walk; the misses are only counted.
        A class whose programs run past the step cap raises ResourceExceeded
        before any of them is counted: the budget bounds how many rows a
        trace lists, and the cap is the only bound on how long each is.
        """
        n_opcodes = size // 2
        _core_py.check_step_cap(n_opcodes)
        left = self.budget.programs - self.programs_run
        end = _core_py.class_size(n_opcodes, left + 1)  # end > left: the class outlasts the budget
        count = min(end, left)
        hits = _core_py.class_hit_ranks(n_opcodes, self.problem.target, stop=count)
        if until_hit and hits:
            count, hits = hits[0] + 1, hits[:1]
        elif count < end:
            self.budget_exhausted = True
        if count:
            self.segments.append((n_opcodes, count, tuple(hits)))
            self.programs_run += count
        return Program(_core_py.rank_bits(n_opcodes, hits[0])) if hits else None

    def finish(self, policy: SearchPolicy) -> SearchTrace:
        return SearchTrace(
            policy=policy,
            segments=tuple(self.segments),
            programs_run=self.programs_run,
            energy_charged=entropy_to_work(self.bits_reduced, self.temperature),
            bits_reduced=self.bits_reduced,
            best_found=self.best,
            temperature=self.temperature,
            budget_exhausted=self.budget_exhausted,
        )


def _exhaustive_by_size(session: _Session, start: int) -> None:
    session.best = session.scan(start, until_hit=False)


def _size_descending(session: _Session, start: int) -> None:
    session.best = session.scan(start, until_hit=True)
    while session.best is not None and session.best.length > 2:
        hit = session.scan(session.best.length - 2, until_hit=True)
        if hit is None:
            return  # nothing left at this size: the best is minimal
        if entropy_to_work(session.bits_reduced + 2, session.temperature) > session.budget.energy:
            session.budget_exhausted = True
            return
        session.bits_reduced += 2
        session.best = hit


def _reachability_greedy(session: _Session, max_len: int) -> None:
    for size in range(2, max_len + 2, 2):
        session.best = session.scan(size, until_hit=True)
        if session.best is not None or session.budget_exhausted:
            return


def _as_policy(policy: SearchPolicy | str) -> SearchPolicy:
    """The policy a SearchPolicy or its name stands for; case, "-" and "_"
    in a name are ignored.  Anything else raises InvalidPolicy."""
    if isinstance(policy, str):
        try:
            return SearchPolicy(policy.lower().replace("_", "").replace("-", ""))
        except ValueError:
            raise InvalidPolicy(f"unknown search policy {policy!r}") from None
    if not isinstance(policy, SearchPolicy):
        raise InvalidPolicy(f"unknown search policy {policy!r}")
    return policy


def demiurge_search(
    rho: Problem | str,
    policy: SearchPolicy | str,
    budget: Budget | None = None,
    *,
    temperature: float = 300.0,
    start_length: int | None = None,
    max_len: int = DEFAULT_MAX_LEN,
) -> SearchTrace:
    """Search for a short solution of rho under the given policy and budget.

    start_length picks the size class where ExhaustiveBySize scans and
    SizeDescending begins its descent; the default is the literal program's
    class, 2*l(rho) + 2.  Programs run at the target's width, len(rho).
    The trace is returned whether or not a solution was found; exhausting
    a budget is encoded there, not raised.  A class past the step cap,
    2 * DEFAULT_MAX_STEPS bits, raises ResourceExceeded, so the default
    start does for a target of more than DEFAULT_MAX_STEPS - 1 bits.
    """
    problem = _as_problem(rho)
    policy = _as_policy(policy)
    if budget is None:
        budget = Budget()
    _landauer_unit(temperature)  # validates temperature
    _check_even_length("max_len", max_len, 2)
    start = start_length if start_length is not None else literal_program(problem).length
    _check_even_length("start_length", start, 2)

    session = _Session(problem, budget, temperature)
    if policy is SearchPolicy.EXHAUSTIVE_BY_SIZE:
        _exhaustive_by_size(session, start)
    elif policy is SearchPolicy.SIZE_DESCENDING:
        _size_descending(session, start)
    else:
        _reachability_greedy(session, max_len)
    return session.finish(policy)
