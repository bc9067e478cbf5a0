"""Tests for the Demiurge search policies and their energy accounting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcalc import _core_py
from reachcalc.entropy import BOLTZMANN_K, LN2, entropy_to_work
from reachcalc.errors import DomainError, InvalidPolicy, ResourceExceeded
from reachcalc.machine import Problem, enumerate_solutions, kolmogorov_upper, run
from reachcalc.search import Budget, SearchPolicy, SearchTrace, demiurge_search

import oracles

target_bits = st.text(alphabet="01", min_size=0, max_size=4)


# ------------------------------------------------------------------ size descent


def test_size_descending_pinned_trace():
    """Descend from the 10-bit literal of '0000' to the 8-bit doubling form."""
    trace = demiurge_search("0000", SearchPolicy.SIZE_DESCENDING)
    assert trace.policy is SearchPolicy.SIZE_DESCENDING
    assert trace.best_found.bits == "00001011"
    assert trace.programs_run == 13  # 1 literal hit + 3 in class 8 + 9 in class 6
    assert trace.bits_reduced == 2
    assert not trace.budget_exhausted
    assert trace.steps[0] == ("0000000011", "hit")
    assert trace.steps[3] == ("00001011", "hit")
    assert trace.programs_run == len(trace.steps)


def test_size_descending_energy_is_exact_landauer_multiple():
    trace = demiurge_search("0000", SearchPolicy.SIZE_DESCENDING)
    assert trace.energy_charged == BOLTZMANN_K * 300.0 * LN2 * trace.bits_reduced
    assert trace.energy_charged == entropy_to_work(trace.bits_reduced, 300.0)


def test_size_descending_empty_target_costs_nothing():
    trace = demiurge_search("", SearchPolicy.SIZE_DESCENDING)
    assert trace.best_found.bits == "11"
    assert trace.programs_run == 1
    assert trace.bits_reduced == 0
    assert trace.energy_charged == 0.0


def test_size_descending_from_larger_start_class():
    """Starting above the literal: the 6-bit solution is found first, then 4."""
    trace = demiurge_search("0", SearchPolicy.SIZE_DESCENDING, start_length=6)
    assert [s for s in trace.steps] == [
        ("000011", "miss"),
        ("000111", "miss"),
        ("001011", "miss"),
        ("010011", "miss"),
        ("010111", "miss"),
        ("011011", "miss"),
        ("100011", "hit"),
        ("0011", "hit"),
        ("11", "miss"),
    ]
    assert trace.best_found.bits == "0011"
    assert trace.bits_reduced == 2
    assert trace.energy_charged == entropy_to_work(2, 300.0)


def test_size_descending_temperature_scales_energy():
    t77 = demiurge_search("0000", SearchPolicy.SIZE_DESCENDING, temperature=77.0)
    assert t77.temperature == 77.0
    assert t77.energy_charged == entropy_to_work(2, 77.0)


@given(target_bits)
@settings(max_examples=25, deadline=None)
def test_size_descending_reaches_the_minimum(rho):
    """Solution sizes are upward closed, so the descent never stops early."""
    trace = demiurge_search(rho, SearchPolicy.SIZE_DESCENDING, max_len=14)
    bound = kolmogorov_upper(rho)
    assert trace.best_found is not None
    assert trace.best_found.length == bound.bits
    assert run(trace.best_found) == rho


# ----------------------------------------------------------------- exhaustive


def test_exhaustive_scans_one_class():
    trace = demiurge_search("0", SearchPolicy.EXHAUSTIVE_BY_SIZE)
    assert trace.steps == (("0011", "hit"), ("0111", "miss"), ("1011", "miss"))
    assert trace.best_found.bits == "0011"
    assert trace.bits_reduced == 0
    assert trace.energy_charged == 0.0


def test_exhaustive_start_length_override():
    trace = demiurge_search("0", SearchPolicy.EXHAUSTIVE_BY_SIZE, start_length=6)
    assert trace.programs_run == 9  # the whole 6-bit class
    assert trace.best_found.bits == "100011"


# --------------------------------------------------------------------- greedy


def test_greedy_pinned_run():
    trace = demiurge_search(
        "01010101", SearchPolicy.REACHABILITY_GREEDY, Budget(programs=2 * 6561)
    )
    assert trace.best_found.bits == "0001101011"
    assert trace.programs_run == 58
    assert not trace.budget_exhausted


def test_greedy_is_cheaper_than_scanning_every_class():
    trace = demiurge_search("01010101", SearchPolicy.REACHABILITY_GREEDY)
    exhaustive_cost = sum(3 ** (k - 1) for k in range(1, 6))  # classes 2..10
    assert trace.programs_run < exhaustive_cost


def test_greedy_builds_the_prefix_table_once():
    """Timing-free guard: the walk of every class reads one prefix table,
    built once for the target, not once per class."""
    _core_py._prefix_table.cache_clear()
    trace = demiurge_search("01" * 8, SearchPolicy.REACHABILITY_GREEDY)
    assert trace.best_found.bits == "000110101011"
    assert [n for n, _, _ in trace.segments] == [1, 2, 3, 4, 5, 6]
    assert _core_py._prefix_table.cache_info().misses == 1


def test_greedy_empty_target():
    trace = demiurge_search("", SearchPolicy.REACHABILITY_GREEDY)
    assert trace.best_found.bits == "11"
    assert trace.programs_run == 1


@given(target_bits)
@settings(max_examples=15, deadline=None)
def test_greedy_finds_the_minimum_given_budget(rho):
    trace = demiurge_search(rho, SearchPolicy.REACHABILITY_GREEDY, max_len=14)
    bound = kolmogorov_upper(rho)
    assert trace.best_found.length == bound.bits
    assert run(trace.best_found) == rho


# -------------------------------------------------------------------- budgets


def test_program_budget_stops_the_search():
    trace = demiurge_search("0000", SearchPolicy.SIZE_DESCENDING, Budget(programs=5))
    assert trace.budget_exhausted
    assert trace.programs_run == 5
    assert trace.best_found.bits == "00001011"  # found before the cutoff
    assert trace.bits_reduced == 2
    # Every program of 10^8 opcodes runs past the step cap, so the search
    # refuses the class before it counts any of them as run.
    with pytest.raises(ResourceExceeded, match="every program of 200000000 bits"):
        demiurge_search("0", "size-descending", start_length=2 * 10**8)


def test_energy_budget_blocks_the_reduction():
    """1.5 bits of budget cannot pay for a 2-bit reduction."""
    budget = Budget(energy=1.5 * BOLTZMANN_K * 300.0 * LN2)
    trace = demiurge_search("0000", SearchPolicy.SIZE_DESCENDING, budget)
    assert trace.budget_exhausted
    assert trace.programs_run == 4
    assert trace.best_found.bits == "0000000011"  # stuck with the literal
    assert trace.bits_reduced == 0
    assert trace.energy_charged == 0.0


def test_energy_budget_allows_exact_cost():
    budget = Budget(energy=entropy_to_work(2, 300.0))
    trace = demiurge_search("0000", SearchPolicy.SIZE_DESCENDING, budget)
    assert not trace.budget_exhausted
    assert trace.best_found.bits == "00001011"
    assert trace.energy_charged == budget.energy


def test_budget_validation():
    with pytest.raises(DomainError):
        Budget(programs=0)
    with pytest.raises(DomainError):
        Budget(energy=0.0)
    with pytest.raises(DomainError):
        Budget(energy=math.nan)
    assert Budget().programs == 100_000
    assert Budget().energy == math.inf


@pytest.mark.parametrize("programs", [2.5, 3.0, True, "3", None])
def test_budget_programs_must_be_an_int(programs):
    with pytest.raises(DomainError):
        Budget(programs=programs)


# ------------------------------------------------------------------ plumbing


def test_policy_string_coercion():
    for name in ("sizedescending", "size-descending", "SIZE_DESCENDING", "Size_Descending"):
        trace = demiurge_search("0", name)
        assert trace.policy is SearchPolicy.SIZE_DESCENDING


def test_unknown_policy():
    with pytest.raises(InvalidPolicy):
        demiurge_search("0", "simulated_annealing")
    with pytest.raises(InvalidPolicy):
        demiurge_search("0", 42)


def test_parameter_validation():
    with pytest.raises(DomainError):
        demiurge_search("0", SearchPolicy.SIZE_DESCENDING, temperature=0.0)
    with pytest.raises(DomainError):
        demiurge_search("0", SearchPolicy.SIZE_DESCENDING, temperature=-3.0)
    with pytest.raises(DomainError):
        demiurge_search("0", SearchPolicy.SIZE_DESCENDING, max_len=13)
    with pytest.raises(DomainError):
        demiurge_search("0", SearchPolicy.SIZE_DESCENDING, start_length=5)
    with pytest.raises(DomainError):
        demiurge_search("0", SearchPolicy.SIZE_DESCENDING, start_length=0)


def test_search_runs_at_the_problem_width():
    # A 65-bit target: search and enumeration run the programs at the same
    # width, so they agree on the shortest program.
    problem = Problem("0" * 65)
    shortest = enumerate_solutions(problem, 18).programs[0]
    greedy = demiurge_search(problem, SearchPolicy.REACHABILITY_GREEDY, max_len=18)
    descent = demiurge_search(problem, SearchPolicy.SIZE_DESCENDING, start_length=18)
    assert greedy.best_found == descent.best_found == shortest
    assert shortest.bits == "000010101010100011"


def test_search_starts_at_the_literal_program_of_a_wide_target():
    # No start_length: the first class is the 10,002-bit transcription's,
    # whose first program is the transcription of 5,000 zeros.
    problem = Problem("0" * 5000)
    trace = demiurge_search(problem, SearchPolicy.SIZE_DESCENDING)
    assert trace.segments == ((5001, 1, (0,)), (5000, 99_999, ()))
    assert trace.best_found.bits == "00" * 5000 + "11"
    assert trace.budget_exhausted


def test_trace_is_a_complete_record():
    trace = demiurge_search("00", SearchPolicy.SIZE_DESCENDING)
    assert isinstance(trace, SearchTrace)
    assert trace.programs_run == len(trace.steps)
    for bits, outcome in trace.steps:
        assert outcome in ("hit", "miss")
        assert (run(bits) == "00") == (outcome == "hit")


# ------------------------------------------------------- against the oracle

_POLICY_NAMES = {
    SearchPolicy.EXHAUSTIVE_BY_SIZE: "exhaustive",
    SearchPolicy.SIZE_DESCENDING: "descending",
    SearchPolicy.REACHABILITY_GREEDY: "greedy",
}
# Class sizes are powers of 3, so budgets at 3^k - 1, 3^k and 3^k + 1 end a
# run just before, at and just after the end of a class.
_EDGE_BUDGETS = [1] + [3**k + d for k in range(1, 7) for d in (-1, 0, 1) if 3**k + d > 0]


@given(
    rho=st.text(alphabet="01", max_size=5),
    policy=st.sampled_from(list(SearchPolicy)),
    programs=st.one_of(st.sampled_from(_EDGE_BUDGETS), st.integers(1, 800)),
    energy_bits=st.sampled_from([math.inf, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0]),
    start_length=st.one_of(st.none(), st.integers(1, 6).map(lambda k: 2 * k)),
    max_len=st.integers(1, 7).map(lambda k: 2 * k),
)
@settings(max_examples=300, deadline=None)
def test_search_matches_the_run_every_candidate_oracle(
    rho, policy, programs, energy_bits, start_length, max_len
):
    energy = math.inf if energy_bits == math.inf else entropy_to_work(energy_bits, 300.0)
    trace = demiurge_search(rho, policy, Budget(programs=programs, energy=energy),
                            start_length=start_length, max_len=max_len)
    want = oracles.oracle_search(rho, _POLICY_NAMES[policy], programs, energy,
                                 start_length=start_length, max_len=max_len)
    assert trace.steps == want["steps"]
    assert trace.programs_run == want["programs_run"]
    assert (trace.best_found.bits if trace.best_found else None) == want["best_found"]
    assert trace.bits_reduced == want["bits_reduced"]
    assert trace.energy_charged == want["energy_charged"]
    assert trace.budget_exhausted == want["budget_exhausted"]


def test_exhaustive_budget_cut_inside_a_class_with_a_later_hit():
    """'0' at start length 6: the class's only hit is its 7th program, so a
    budget of 6 runs out before it and one of 7 ends on it."""
    short = demiurge_search("0", SearchPolicy.EXHAUSTIVE_BY_SIZE, Budget(programs=6),
                            start_length=6)
    assert short.budget_exhausted and short.best_found is None
    assert short.programs_run == 6
    ends = demiurge_search("0", SearchPolicy.EXHAUSTIVE_BY_SIZE, Budget(programs=7),
                           start_length=6)
    assert ends.budget_exhausted and ends.best_found.bits == "100011"
    assert ends.steps[-1] == ("100011", "hit")


def test_huge_budget_costs_hits_not_candidates():
    """3^16 programs: the whole 34-bit class of '0'*16, counted, not run."""
    trace = demiurge_search("0" * 16, SearchPolicy.EXHAUSTIVE_BY_SIZE, Budget(programs=3**16))
    assert trace.programs_run == 3**16
    assert not trace.budget_exhausted
    assert trace.best_found.bits == "00" * 16 + "11"  # rank 0 of its class
    assert run(trace.best_found) == "0" * 16
