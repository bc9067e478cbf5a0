"""Demiurge search: find short solutions, paying Landauer work per bit saved.

Three deterministic policies over the toy machine's size classes:

* ExhaustiveBySize scans one size class fully (default: the literal
  program's class) and keeps the first solution it meets.
* SizeDescending starts from a first found solution (default: the literal
  program, the transcription every problem carries with it) and re-scans
  the classes s-2, s-4, ... until a class yields nothing, at which point no
  smaller solution exists.  Each accepted size reduction is charged
  k T ln2 joules per bit erased.
* ReachabilityGreedy keeps a frontier of size classes ranked by the
  lower-branch reachability a hypothetical solution of that size would
  have against the solutions found so far (length-weighted), expands the
  best class first, and once any solution is known restricts itself to
  strictly smaller classes.

Budgets cap the number of programs run and the energy charged; running out
is not an error, the trace just reports budget_exhausted.

A class is addressed by rank (see reachcalc._core_py): the target-prefix
walk finds its hits directly, and the misses between them are counted, not
run.  A search therefore costs its hits, not the programs it reports as
run, and the trace rebuilds the programs only when `steps` asks for them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from itertools import islice

from . import _core_py  # reachbench/layers.py wraps search._core_py
from .entropy import entropy_to_work
from .errors import DomainError, InvalidPolicy
from .lambertw import BranchChoice
from .machine import (
    DEFAULT_MAX_LEN,
    DEFAULT_MAX_OUTPUT_BITS,
    DEFAULT_MAX_STEPS,
    Problem,
    Program,
    _as_problem,
    iter_valid_programs,  # reachbench/layers.py wraps search.iter_valid_programs
    literal_program,
)
from .reachability import reach_from_variation

__all__ = ["SearchPolicy", "Budget", "SearchTrace", "demiurge_search"]


class SearchPolicy(Enum):
    EXHAUSTIVE_BY_SIZE = "exhaustivebysize"
    SIZE_DESCENDING = "sizedescending"
    REACHABILITY_GREEDY = "reachabilitygreedy"


@dataclass(frozen=True)
class Budget:
    """Program-count and energy caps for one search."""

    programs: int = 100_000
    energy: float = math.inf

    def __post_init__(self):
        if isinstance(self.programs, bool) or not isinstance(self.programs, int):
            raise DomainError(f"program budget must be an int, got {self.programs!r}")
        if self.programs < 1:
            raise DomainError(f"program budget must be >= 1, got {self.programs!r}")
        if not self.energy > 0.0 or math.isnan(self.energy):
            raise DomainError(f"energy budget must be > 0 J, got {self.energy!r}")


#: One class's share of a search, (n_opcodes, count, hit_ranks): the first
#: `count` programs of the class in rank order ran, and hit_ranks hit.
#: A search scans each class at most once, always from its first program.
Segment = tuple[int, int, tuple[int, ...]]


@dataclass(frozen=True)
class SearchTrace:
    """What a search did: the programs it ran, in order, and what it cost.

    The trace keeps one segment per class scanned, with the ranks of its
    hits; `steps` and `iter_steps` rebuild the programs run from them on
    demand, so a trace costs its hits, not its programs.
    """

    policy: SearchPolicy
    segments: tuple[Segment, ...]
    programs_run: int
    energy_charged: float
    bits_reduced: int
    best_found: Program | None
    temperature: float
    budget_exhausted: bool

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

    def __init__(self, problem: Problem, budget: Budget, temperature: float,
                 max_steps: int, max_output_bits: int):
        self.problem = problem
        self.budget = budget
        self.temperature = temperature
        self.max_steps = max_steps
        self.max_output_bits = max_output_bits
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
        """
        n_opcodes = size // 2
        end = 3 ** (n_opcodes - 1)
        count = min(end, self.budget.programs - self.programs_run)
        hits = _core_py.class_hit_ranks(
            n_opcodes, self.problem.target, self.max_steps, self.max_output_bits, count
        )
        if until_hit and hits:
            count, hits = hits[0] + 1, hits[:1]
        elif count < end:
            self.budget_exhausted = True
        if count:
            self.segments.append((n_opcodes, count, tuple(hits)))
            self.programs_run += count
        return Program(_core_py.rank_bits(n_opcodes, hits[0])) if hits else None

    def try_accept(self, candidate: Program) -> bool:
        """Adopt a hit as the new best, charging for any size reduction.

        Returns False (and stops the search) when the energy budget cannot
        cover the reduction.
        """
        if self.best is None:
            self.best = candidate
            return True
        saved = self.best.length - candidate.length
        if saved <= 0:
            return True
        if entropy_to_work(self.bits_reduced + saved, self.temperature) > self.budget.energy:
            self.budget_exhausted = True
            return False
        self.bits_reduced += saved
        self.best = candidate
        return True

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
    first = session.scan(start, until_hit=True)
    if first is None:
        return
    session.best = first
    size = first.length - 2
    while size >= 2 and not session.budget_exhausted:
        hit = session.scan(size, until_hit=True)
        if hit is None:
            return  # nothing left at this size: the best is minimal
        if not session.try_accept(hit):
            return
        size = hit.length - 2


def _greedy_priority(size: int, found_weight: float) -> float:
    # Reachability a new solution of this size would have, length-weighted
    # against everything found so far.
    w = 2.0**-size
    p = w / (found_weight + w)
    variation = -p * math.log2(p)
    return reach_from_variation(variation, BranchChoice.LOWER)


def _reachability_greedy(session: _Session, max_len: int) -> None:
    sizes = set(range(2, max_len + 2, 2))
    found_weight = 0.0
    while sizes and not session.budget_exhausted:
        if session.best is not None:
            sizes = {s for s in sizes if s < session.best.length}
            if not sizes:
                return
        if found_weight > 0.0:
            size = min(sizes, key=lambda s: (-_greedy_priority(s, found_weight), s))
        else:
            size = min(sizes)
        # Drain the chosen class until it hits, empties, or the budget ends.
        # Either way it is done with: a hit leaves only smaller classes.
        sizes.remove(size)
        hit = session.scan(size, until_hit=True)
        if hit is not None:
            found_weight += 2.0**-size
            if not session.try_accept(hit):
                return


def demiurge_search(
    rho: Problem | str,
    policy: SearchPolicy | str,
    budget: Budget | None = None,
    *,
    temperature: float = 300.0,
    start_length: int | None = None,
    max_len: int = DEFAULT_MAX_LEN,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_output_bits: int = DEFAULT_MAX_OUTPUT_BITS,
) -> SearchTrace:
    """Search for a short solution of rho under the given policy and budget.

    start_length picks the size class where ExhaustiveBySize scans and
    SizeDescending begins its descent; the default is the literal program's
    class, 2*l(rho) + 2.  The trace is returned whether or not a solution
    was found; exhausting a budget is encoded there, not raised.
    """
    problem = _as_problem(rho)
    if isinstance(policy, str):
        try:
            policy = SearchPolicy(policy.lower().replace("_", "").replace("-", ""))
        except ValueError:
            raise InvalidPolicy(f"unknown search policy {policy!r}") from None
    if not isinstance(policy, SearchPolicy):
        raise InvalidPolicy(f"unknown search policy {policy!r}")
    if budget is None:
        budget = Budget()
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise DomainError(f"temperature must be finite and > 0 K, got {temperature!r}")
    if max_len < 2 or max_len % 2:
        raise DomainError(f"max_len must be even and >= 2, got {max_len!r}")

    start = start_length if start_length is not None else literal_program(problem).length
    if start < 2 or start % 2:
        raise DomainError(f"start_length must be even and >= 2, got {start!r}")

    session = _Session(problem, budget, temperature, max_steps, max_output_bits)
    if policy is SearchPolicy.EXHAUSTIVE_BY_SIZE:
        _exhaustive_by_size(session, start)
    elif policy is SearchPolicy.SIZE_DESCENDING:
        _size_descending(session, start)
    else:
        _reachability_greedy(session, max_len)
    return session.finish(policy)
