"""Tests for the toy machine: validation, execution, enumeration, reports."""

import functools
import importlib.util
import math
import os
import random
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachcalc
from reachcalc import _core_py, cli, machine
from reachcalc.entropy import FiniteDistribution, entropy_to_work
from reachcalc.errors import (
    DegenerateSetWarning,
    DomainError,
    EmptySetError,
    InvalidProgram,
    ResourceExceeded,
)
from reachcalc.lambertw import BranchChoice
from reachcalc.machine import (
    DEFAULT_MAX_STEPS,
    ComplexityBound,
    Problem,
    Program,
    Scheme,
    enumerate_solutions,
    iter_valid_programs,
    kolmogorov_upper,
    literal_program,
    reachability_report,
    run,
)

import oracles

BENCH = Path(__file__).resolve().parent.parent / "reachbench"

# Random valid programs: free opcodes then HALT.
program_bits = st.lists(
    st.sampled_from(["00", "01", "10"]), min_size=0, max_size=7
).map(lambda body: "".join(body) + "11")

target_bits = st.text(alphabet="01", min_size=0, max_size=5)


def test_backend_is_reported():
    # Only the benchmark reads these two names: reachbench/run.py records
    # CORE_BACKEND and reachbench/layers.py reads _core.  Neither is part of
    # the package's public surface or of --version.
    assert machine.CORE_BACKEND == "pure"
    assert machine._core is None
    assert not hasattr(reachcalc, "CORE_BACKEND")
    assert "CORE_BACKEND" not in reachcalc.__all__
    assert "CORE_BACKEND" not in machine.__all__
    assert not hasattr(cli, "CORE_BACKEND")


# ------------------------------------------------------------------ validation


def test_program_accepts_valid():
    p = Program("0001101011")
    assert p.length == 10
    assert p.opcode_count == 5
    assert Program("11").opcode_count == 1


def test_program_rejects_malformed():
    for bad in ("", "0", "001", "0011x1", "0100", "1100", "110011", "0011 "):
        with pytest.raises(InvalidProgram):
            Program(bad)


def test_program_rejects_missing_or_early_halt():
    with pytest.raises(InvalidProgram):
        Program("0010")  # no HALT
    with pytest.raises(InvalidProgram):
        Program("11000011")  # HALT first


def test_problem_validation():
    assert Problem("0101").length == 4
    assert Problem("").length == 0
    with pytest.raises(DomainError):
        Problem("01a1")
    # Any bit string is a target: its length is the only width there is.
    assert Problem("0" * 65).length == 65
    assert Problem("0" * 100_000).length == 100_000
    with pytest.raises(TypeError):
        Problem("000", max_bits=2)


# ------------------------------------------------------------------- execution


def test_run_pinned_programs():
    assert run("11") == ""
    assert run("0011") == "0"
    assert run("0111") == "1"
    assert run("1011") == ""  # DOUBLE on empty output is a no-op
    assert run("000111") == "01"
    assert run("00101011") == "0000"  # one emit, doubled twice
    assert run("0001101011") == "01010101"


def test_run_accepts_program_objects():
    assert run(Program("0011")) == "0"


def test_run_validates_first():
    with pytest.raises(InvalidProgram):
        run("0010")


def test_run_output_cap():
    # 1 emit + 7 doublings = 128 bits of output
    wide = "00" + "10" * 7 + "11"
    with pytest.raises(ResourceExceeded):
        run(wide)
    assert run(wide, max_output_bits=128) == "0" * 128
    with pytest.raises(ResourceExceeded, match="output cap 127 bits breached"):
        run(wide, max_output_bits=127)
    with pytest.raises(DomainError, match="max_output_bits must be positive"):
        run("0011", max_output_bits=0)


def test_run_step_cap():
    # A program of n opcodes runs exactly n steps, so its own length bounds
    # its run: run caps only the output, past DEFAULT_MAX_STEPS opcodes too.
    n = DEFAULT_MAX_STEPS
    assert run("10" * (n - 2) + "0011") == "0"
    assert run("10" * (n - 1) + "0011") == "0"
    assert run("00" * (2 * n) + "11", max_output_bits=2 * n) == "0" * (2 * n)
    with pytest.raises(ResourceExceeded) as caught:
        run("00" * n + "11")
    assert str(caught.value) == f"output cap 64 bits breached by {'00' * n + '11'!r}"


def test_run_takes_no_step_cap():
    with pytest.raises(TypeError):
        run("0011", max_steps=1)


def test_run_bits_matches_the_independent_interpreter_at_every_width():
    for n in range(1, 9):
        for bits in iter_valid_programs(n):
            for width in (*range(11), 64):
                assert _core_py.run_bits(bits, width) == oracles.oracle_run(
                    bits, max_output_bits=width
                ), (bits, width)


@given(program_bits)
@settings(max_examples=300)
def test_run_matches_independent_interpreter(bits):
    expected = oracles.oracle_run(bits)
    if expected is None:
        with pytest.raises(ResourceExceeded):
            run(bits)
    else:
        assert run(bits) == expected


# -------------------------------------------------------------------- literals


def test_literal_program_pinned():
    assert literal_program("").bits == "11"
    assert literal_program("0").bits == "0011"
    assert literal_program("01010101").bits == "000100010001000111"


def test_literal_program_transcribes():
    assert literal_program("01").bits == "000111"
    assert literal_program("10").bits == "010011"


def test_literal_program_of_a_target_above_the_int_digit_limit():
    # 5,000 or more bits: int() refuses a base-3 string of over 4,300 digits.
    for rho in ("0" * 5000, "10" * 2600):
        prog = literal_program(Problem(rho))
        assert prog.length == 2 * len(rho) + 2
        assert run(prog, max_output_bits=len(rho)) == rho


@given(target_bits)
def test_literal_program_solves_its_target(rho):
    prog = literal_program(rho)
    assert prog.length == 2 * len(rho) + 2
    assert run(prog) == rho


# ----------------------------------------------------------------- enumeration


def test_valid_program_class_sizes():
    """Class k holds 3^(k-1) programs: free opcodes over {00,01,10}, then HALT."""
    for k in range(1, 8):
        progs = list(iter_valid_programs(k))
        assert len(progs) == 3 ** (k - 1)
        assert progs == sorted(progs)  # lexicographic
        assert all(len(p) == 2 * k for p in progs)
    assert list(iter_valid_programs(0)) == []


def test_prefix_freeness_to_16_bits():
    valid = set()
    for k in range(1, 9):
        valid.update(iter_valid_programs(k))
    for prog in valid:
        for cut in range(2, len(prog), 2):
            assert prog[:cut] not in valid


def test_enumerate_solutions_pinned():
    s = enumerate_solutions("0", 6)
    assert [p.bits for p in s.programs] == ["0011", "100011"]
    assert s.weights.probabilities == (0.8, 0.2)
    assert s.lengths() == (4, 6)
    assert len(s) == 2


def test_enumerate_empty_target():
    s = enumerate_solutions("", 6)
    assert [p.bits for p in s.programs] == ["11", "1011", "101011"]
    assert s.weights.probabilities == pytest.approx((16 / 21, 4 / 21, 1 / 21))


def test_enumerate_orders_by_length_then_lex():
    s = enumerate_solutions("00", 8)
    lengths = s.lengths()
    assert lengths == tuple(sorted(lengths))
    for size in set(lengths):
        group = [p.bits for p in s.programs if p.length == size]
        assert group == sorted(group)


def test_enumerate_uniform_scheme():
    s = enumerate_solutions("0", 6, scheme=Scheme.UNIFORM)
    assert s.weights.probabilities == (0.5, 0.5)
    assert s.scheme is Scheme.UNIFORM


def test_enumerate_no_solutions():
    s = enumerate_solutions("01010101", 8)
    assert len(s) == 0
    assert s.weights is None


def test_enumerate_budget():
    # The gate bounds enumeration only.  kolmogorov_upper reads K from the
    # prefix table and takes no length cap at all.
    for max_len in (26, 10**11, 7):
        with pytest.raises(TypeError):
            kolmogorov_upper("0", max_len)
    with pytest.raises(TypeError):
        kolmogorov_upper("0", max_len=26)
    for max_len in (26, 10**11):  # no power of max_len is formed
        message = rf"^2\^{max_len} candidate strings exceed the enumeration budget 16777216$"
        with pytest.raises(ResourceExceeded, match=message):
            enumerate_solutions("0", max_len=max_len)
    with pytest.raises(DomainError):
        enumerate_solutions("0", max_len=7)
    with pytest.raises(DomainError):
        enumerate_solutions("0", max_len=-2)


def test_enumerate_rejects_a_scheme_that_is_not_a_scheme():
    with pytest.raises(DomainError, match="unknown scheme"):
        enumerate_solutions("0", 4, scheme="uniform")


def test_an_unknown_scheme_is_rejected_when_there_are_no_solutions():
    assert not enumerate_solutions("1111111", 4).programs
    with pytest.raises(DomainError, match="unknown scheme 'bogus'"):
        enumerate_solutions("1111111", 4, scheme="bogus")
    with pytest.raises(DomainError, match="unknown scheme 'bogus'"):
        reachability_report("1111111", 4, scheme="bogus")


def test_enumerate_agrees_with_all_strings_oracle():
    table = oracles.oracle_solutions(10)
    for rho in ("", "0", "1", "01", "11", "000", "0101"):
        got = [p.bits for p in enumerate_solutions(rho, 10).programs]
        assert got == table.get(rho, [])


def test_scan_length_class_pinned():
    assert _core_py.scan_length_class(2, "0") == ["0011"]
    assert _core_py.scan_length_class(2, "1") == ["0111"]
    assert _core_py.scan_length_class(3, "0") == []  # its one hit, 100011, is DOUBLE-led
    assert _core_py.scan_length_class(5, "01010101") == ["0001101011"]
    assert _core_py.scan_length_class(1, "") == ["11"]
    assert _core_py.scan_length_class(1, "0") == []


def test_scan_at_the_target_width_matches_the_64_bit_oracle():
    """Candidates whose output outgrows the target stop early in the scan;
    the oracle runs every one at 64 bits, and the hits in the scan's block
    of ranks agree."""
    for n in range(1, 11):
        outputs = [oracles.oracle_run(bits) for bits in oracles._class_programs(n)]
        for target in ("", "0", "1", "01", "10", "0000"):
            assert _core_py.scan_length_class(n, target) == [
                _core_py.rank_bits(n, rank) for rank in _emit_block(n, target)
                if outputs[rank] == target
            ], (n, target)


@pytest.fixture(scope="module")
def reference():
    """reachbench/reference.py, loaded from its file; it needs mpmath and
    sets mpmath's precision on import, which is restored."""
    mpmath = pytest.importorskip("mpmath")
    dps = mpmath.mp.dps
    spec = importlib.util.spec_from_file_location("reference", BENCH / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    mpmath.mp.dps = dps
    return module


def _targets(max_bits):
    return ["".join(bits) for n in range(max_bits + 1) for bits in product("01", repeat=n)]


@functools.cache
def _oracle_table():
    """Output -> the programs of <= 9 opcodes printing it, (length, lex)
    order, run through the independent interpreter; built once per module."""
    table = {}
    for n in range(1, 10):
        for bits in oracles._class_programs(n):
            table.setdefault(oracles.oracle_run(bits), []).append(bits)
    return table


@functools.cache
def _class_outputs(n_opcodes, width):
    """Output -> the (rank, program) pairs of n_opcodes opcodes printing it,
    each run once at width through the kernel's interpreter:
    the brute force of a whole class, shared by every target of that width."""
    outputs = {}
    for rank, bits in enumerate(_core_py.iter_valid_programs(n_opcodes)):
        outputs.setdefault(_core_py.run_bits(bits, width), []).append((rank, bits))
    return outputs


def _emit_block(n_opcodes, target):
    """The ranks of the programs of n_opcodes opcodes led by the emit of
    target[0], [d * 3**(n - 2), (d + 1) * 3**(n - 2)) with d = int(target[0]);
    the lone HALT of class 1; none for an empty target in a longer class."""
    if n_opcodes == 1:
        return range(1)
    if n_opcodes < 1 or not target:
        return range(0)
    block, d = 3 ** (n_opcodes - 2), int(target[0])
    return range(d * block, (d + 1) * block)


def _shared_scan(n_opcodes, target, *, full=False):
    """scan_length_class(n_opcodes, target), from the shared brute force cut
    to the emit block; the whole class's hits when full."""
    block = _emit_block(n_opcodes, target)
    return [bits for rank, bits in _class_outputs(n_opcodes, len(target)).get(target, [])
            if full or rank in block]


def test_enumerate_matches_the_oracle_through_the_derived_classes(monkeypatch):
    """Enumeration scans the classes from the shortest one to len + 1 and
    builds the rest; at 9 opcodes every target of <= 7 bits has at least
    one built class.  Its scans come from the shared brute force, which
    test_scan_length_class_is_the_brute_force_on_its_emit_block holds to
    scan_length_class, so each class runs once per width, not per target."""
    monkeypatch.setattr(_core_py, "scan_length_class", _shared_scan)
    table = _oracle_table()
    for target in _targets(8):
        got = [p.bits for p in enumerate_solutions(target, 18).programs]
        assert got == table.get(target, []), target


def test_the_solution_set_by_class_matches_the_per_program_construction(monkeypatch):
    """programs, weights, len and lengths() of the set kept by class equal a
    Program per oracle hit, weighted one by one from 2^-length, exactly, for
    every target of <= 6 bits, every cap up to 16 bits and both schemes."""
    monkeypatch.setattr(_core_py, "scan_length_class", _shared_scan)
    table = _oracle_table()
    for target in _targets(6):
        for max_len in range(0, 18, 2):
            programs = tuple(Program(bits) for bits in table.get(target, [])
                             if len(bits) <= max_len)
            raw = [2.0 ** -p.length for p in programs]
            total = math.fsum(raw)
            expected = {
                Scheme.UNIFORM: [1.0 / len(programs) for _ in programs],
                Scheme.LENGTH_WEIGHTED: [r / total for r in raw],
            }
            for scheme, ps in expected.items():
                s = enumerate_solutions(target, max_len, scheme=scheme)
                assert s.programs == programs, (target, max_len)
                assert s.weights == (FiniteDistribution(ps) if programs else None)
                assert len(s) == len(programs)
                assert s.lengths() == tuple(p.length for p in programs)


def test_the_prefix_table_matches_the_oracle():
    """The kernel's shortest class and the walk's hits, class by class,
    against the oracle table for every target of <= 8 bits."""
    table = _oracle_table()
    for target in _targets(8):
        programs = table.get(target, [])
        shortest = _core_py.shortest_class(target)
        if programs:
            assert shortest == len(programs[0]) // 2, target
        else:
            assert shortest > 9, target
        for n in range(1, 10):
            got = [_core_py.rank_bits(n, r) for r in _core_py.class_hit_ranks(n, target)]
            assert got == [bits for bits in programs if len(bits) == 2 * n], (target, n)


def test_each_class_is_its_emit_led_hits_then_the_class_below_behind_a_double():
    """The one rule enumeration builds every class by, checked on the
    brute-force scan for every class from 2 to 9 opcodes: the hits led by
    the emit of target[0], then DOUBLE + each hit of the class below.  No
    program led by the other emit prints the target, and past len + 1 no
    emit-led program hits, so only the classes up to len + 1 need a scan."""
    for target in _targets(6):
        for n in range(2, 10):
            emit_led = _shared_scan(n, target)
            below = [_core_py.DOUBLE + p for p in _shared_scan(n - 1, target, full=True)]
            assert _shared_scan(n, target, full=True) == emit_led + below, (target, n)
            block, emit_ranks = _emit_block(n, target), range(2 * 3 ** (n - 2))
            assert not [rank for rank, _ in _class_outputs(n, len(target)).get(target, [])
                        if rank in emit_ranks and rank not in block], (target, n)
            if n > len(target) + 1:
                assert emit_led == [], (target, n)


def test_scan_length_class_is_the_brute_force_on_its_emit_block():
    """scan_length_class(n, target) is the whole class's brute force cut to
    the block of ranks led by the emit of target[0] (the lone HALT in class
    1), for every target of <= 6 bits and every class up to 9 opcodes."""
    for n in range(0, 10):
        for target in _targets(6):
            assert _core_py.scan_length_class(n, target) == _shared_scan(n, target), (n, target)


def _is_square(target):
    """Whether target is ww for some non-empty w."""
    half = target[: len(target) // 2]
    return bool(target) and half + half == target


def test_the_last_opcode_before_halt_finishes_the_target():
    """The identity behind the scan's last-opcode cut, on the brute force of
    the whole emit(target[0]) block: no hit ends in the emit of the other
    bit, none ends in a DOUBLE unless the target is a square ww, and for ww
    the DOUBLE-ended hits are h[:-2] + DOUBLE + HALT for the emit-led hits h
    of the class below that print w.  Every target of <= 6 bits, n = 3..9."""
    for target in _targets(6):
        if not target:
            continue
        other = _core_py._OPCODES[target[-1] == "0"]
        for n in range(3, 10):
            hits = _shared_scan(n, target)
            assert not [bits for bits in hits if bits[-4:-2] == other], (target, n)
            doubled = [bits for bits in hits if bits[-4:-2] == _core_py.DOUBLE]
            if _is_square(target):
                half = _shared_scan(n - 1, target[: len(target) // 2])
                assert doubled == [h[:-2] + _core_py.DOUBLE + _core_py.HALT for h in half], (
                    target, n)
            else:
                assert doubled == [], (target, n)


@pytest.mark.parametrize("n_opcodes", range(1, 9))
def test_scan_length_class_runs_only_its_emit_block(n_opcodes, monkeypatch):
    """The scan's cost: for n >= 3 and a non-empty target, 3**(n - 3)
    candidates, twice that for a square target; each is led by the emit of
    target[0] and ends before HALT in the emit of target[-1], or in a DOUBLE
    only for a square.  At most one candidate for n = 2, and none for an
    empty target or the one-opcode class."""
    ran = []
    run_bits = _core_py.run_bits

    def spy(bits, width):
        ran.append(bits)
        return run_bits(bits, width)

    monkeypatch.setattr(_core_py, "run_bits", spy)
    for target in ("", "0", "1", "0110", "0101", "1" * 8, "1" * 9):
        ran.clear()
        _core_py.scan_length_class(n_opcodes, target)
        if not target or n_opcodes < 2:
            assert ran == [], (n_opcodes, target)
            continue
        assert {bits[:2] for bits in ran} <= {_core_py._OPCODES[target[0] == "1"]}
        if n_opcodes == 2:
            assert len(ran) <= 1, target
            continue
        square = _is_square(target)
        assert len(ran) == 3 ** (n_opcodes - 3) * (1 + square), (n_opcodes, target)
        ends = {_core_py._OPCODES[target[-1] == "1"]} | ({_core_py.DOUBLE} if square else set())
        assert {bits[-4:-2] for bits in ran} <= ends, (n_opcodes, target)


@pytest.mark.parametrize("targets, max_len", [
    (_targets(8), 20),
    (["0" * 16, "1" * 16, "01" * 8, "0100" * 4, "0010" * 4, "1110" * 4], 24),
])
def test_class_sizes_match_the_forward_count_oracle(targets, max_len):
    """Each class of enumerate_solutions has the size that the oracle's
    forward count over (opcodes, prefix length) gives, built from the
    target alone."""
    for target in targets:
        counts = oracles.oracle_class_counts(target, max_len // 2)
        expected = [(n, count) for n, count in enumerate(counts) if count]
        got = [(n, len(hits)) for n, hits in enumerate_solutions(target, max_len).classes]
        assert got == expected, target


@pytest.mark.parametrize("target, scanned", [
    ("0101", [4, 5]),
    ("", [1]),
    ("0110100110010110", []),  # its shortest class, 17 opcodes, is past the cap's 12
    ("01" * 8, list(range(6, 13))),
])
def test_solve_scans_only_the_classes_up_to_len_plus_one(target, scanned, monkeypatch, capsys):
    """Scans run from the shortest class to len + 1, within the cap, each
    called with the class and the target alone."""
    calls = []
    scan = _core_py.scan_length_class

    def spy(n_opcodes, rho):
        calls.append(n_opcodes)
        return scan(n_opcodes, rho)

    monkeypatch.setattr(_core_py, "scan_length_class", spy)
    assert cli.main(["solve", target, "--max-len", "24"]) == 0
    assert calls == scanned
    assert "max_len: 24\n" in capsys.readouterr().out


def test_class_hit_ranks_match_the_brute_force_scan():
    """The target-prefix walk against the whole class's brute force, ranks
    mapped to bits by position in the class's product order; every target
    of <= 6 bits."""
    for n in range(1, 9):
        programs = ["".join(body) + "11" for body in product(("00", "01", "10"), repeat=n - 1)]
        if n <= 5:
            assert [_core_py.rank_bits(n, r) for r in range(len(programs))] == programs
        for size in range(7):
            for target in map("".join, product("01", repeat=size)):
                brute = _shared_scan(n, target, full=True)
                ranks = _core_py.class_hit_ranks(n, target)
                assert [programs[r] for r in ranks] == brute, (n, target)
                for hit in ranks:
                    for stop in (hit - 1, hit, hit + 1):
                        assert _core_py.class_hit_ranks(n, target, stop=stop) == [
                            r for r in ranks if r < stop
                        ]
                assert _core_py.class_hit_ranks(n, target, stop=0) == []
                assert _core_py.class_hit_ranks(n, target, stop=len(programs)) == ranks
    # No step cap: the walk takes a class of any size.
    for n in (DEFAULT_MAX_STEPS, DEFAULT_MAX_STEPS + 1):
        assert [_core_py.rank_bits(n, r) for r in _core_py.class_hit_ranks(n, "0")] == [
            "10" * (n - 2) + "0011"
        ]


def test_the_walk_forms_no_power_past_its_stop():
    """A stop far below 3**(n - 1) ends the walk of a class of 10^8 opcodes
    at once; a fresh interpreter with a timeout, so a walk that forms that
    power fails instead of hanging."""
    env = dict(os.environ, PYTHONPATH=str(Path(reachcalc.__file__).parent.parent))
    code = ("from reachcalc import _core_py\n"
            "assert _core_py.class_hit_ranks(10**8, '0', stop=100_001) == []\n"
            "assert _core_py.class_hit_ranks(10**8, '0', stop=1) == []\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=10)
    assert (out.returncode, out.stderr) == (0, "")


def test_the_kernel_takes_no_output_cap():
    # The width is the target's, and nothing bounds the target.
    for target in ("0", "0101", "1" * 64):
        with pytest.raises(TypeError):
            Problem(target, max_bits=len(target) - 1)
    # stop is keyword-only: a stale call passing a cap third fails loudly.
    with pytest.raises(TypeError):
        _core_py.class_hit_ranks(3, "0", 64)
    with pytest.raises(TypeError):
        _core_py.scan_length_class(3, "0", 64)
    # The scan takes no stop: its block of ranks follows from the target.
    with pytest.raises(TypeError):
        _core_py.scan_length_class(3, "0", stop=2)


def test_class_size_is_the_class_counted_up_to_the_cap():
    caps = set(range(1000)) | {3**k + d for k in range(13) for d in (-1, 0, 1)} | {10**6}
    for n in range(1, 41):
        for cap in caps:
            assert _core_py.class_size(n, cap) == min(3 ** (n - 1), cap), (n, cap)
    assert _core_py.class_size(10**8, 100_001) == 100_001


def test_enumerate_target_wider_than_64_bits():
    problem = Problem("0" * 65)
    got = [p.bits for p in enumerate_solutions(problem, 18).programs]
    brute = [
        bits
        for k in range(1, 10)
        for bits in iter_valid_programs(k)
        if run(bits, max_output_bits=128) == problem.target
    ]
    assert got == brute
    assert len(got) == 2 and got[0] == "000010101010100011"


def test_kolmogorov_upper_runs_at_the_problem_width():
    problem = Problem("0" * 65)
    shortest = enumerate_solutions(problem, 18).programs[0]
    bound = kolmogorov_upper(problem)
    assert bound.witness == shortest
    assert bound.bits == shortest.length == 18


# ------------------------------------------------------------------ complexity


def test_kolmogorov_upper_pinned():
    assert kolmogorov_upper("01101001100") == ComplexityBound(
        24, Program("000101000100000101000011"))
    assert kolmogorov_upper("").bits == 2
    assert kolmogorov_upper("").witness.bits == "11"
    assert kolmogorov_upper("0").bits == 4
    assert kolmogorov_upper("0").witness.bits == "0011"
    assert kolmogorov_upper("01010101").bits == 10
    assert kolmogorov_upper("01010101").witness.bits == "0001101011"
    assert kolmogorov_upper("0000").bits == 8
    assert kolmogorov_upper("0000").witness.bits == "00001011"


def test_kolmogorov_upper_takes_no_length_cap():
    # K is a property of the target alone: every target has one, and no
    # answer is withheld for being long.
    with pytest.raises(TypeError):
        kolmogorov_upper("01010101", 8)
    assert kolmogorov_upper("01010101").bits == 10


def test_kolmogorov_upper_gives_every_answer_of_the_brute_force_scan():
    """For every target of <= 8 bits: the oracle table's first program, the
    shortest one first in lexicographic order."""
    table = _oracle_table()
    for target in _targets(8):
        shortest = table[target][0]
        want = ComplexityBound(len(shortest), Program(shortest))
        assert kolmogorov_upper(target) == want, target


def test_kolmogorov_upper_matches_the_reference_walk(reference):
    """K and its witness against the benchmark's own walk, which shares no
    code with the package, for every target of <= 10 bits."""
    for target in _targets(10):
        bound = kolmogorov_upper(target)
        assert bound.bits == reference.complexity(target), target
        assert bound.witness.bits == reference.class_solutions(target, bound.bits // 2)[0], target


def test_kolmogorov_upper_of_long_targets():
    assert kolmogorov_upper("0110100110010110").bits == 34
    rng = random.Random(64)
    for _ in range(200):
        target = "".join(rng.choice("01") for _ in range(64))
        bound = kolmogorov_upper(target)
        assert run(bound.witness, max_output_bits=64) == target
        assert bound.bits == bound.witness.length == 2 * _core_py.shortest_class(target)


def test_kolmogorov_upper_matches_the_shortest_path_oracle():
    """K against a breadth-first search over the prefix states, built from
    the target alone: seeded random targets of 100-4,096 bits, periodic ones
    (whose doubles shorten K) and runs of zeros."""
    rng = random.Random(33)
    targets = ["0" * n for n in (*range(100), 127, 128, 129, 1000, 1023, 1025, 4095)]
    for _ in range(12):
        targets.append("".join(rng.choice("01") for _ in range(rng.randint(100, 4096))))
        unit = "".join(rng.choice("01") for _ in range(rng.randint(1, 12)))
        targets.append((unit * 4096)[: rng.randint(100, 4096)])
    for target in targets:
        bound = kolmogorov_upper(target)
        assert bound.bits == oracles.oracle_complexity(target), target
        assert bound.witness.length == bound.bits
        assert run(bound.witness, max_output_bits=len(target) or 1) == target


def test_kolmogorov_upper_of_long_runs_of_zeros_pinned():
    # One emit and k doubles print 2**k zeros: K = 2 * (k + 2) bits.  Two
    # emits and k - 1 doubles tie, and come first in lexicographic order.
    for n, bits in ((1024, 24), (4096, 28), (16384, 32)):
        target = "0" * n
        bound = kolmogorov_upper(target)
        assert bound.bits == oracles.oracle_complexity(target) == bits
        assert bound.witness.bits == "0000" + "10" * (bits // 2 - 3) + "11"


def test_kolmogorov_upper_never_beats_literal():
    for rho in ("", "0", "10", "110", "0101"):
        bound = kolmogorov_upper(rho)
        assert bound.bits <= literal_program(rho).length
        assert run(bound.witness) == rho


# --------------------------------------------------------------------- reports


def test_report_pinned_two_solutions():
    records = reachability_report("0", 6)
    assert [r.program_id for r in records] == ["100011", "0011"]  # descending P

    longer, shorter = records
    assert longer.p_i == pytest.approx(0.2, rel=1e-15)
    assert longer.variation == pytest.approx(0.4643856189774725, rel=1e-12)
    assert longer.reachability == pytest.approx(0.2, rel=1e-11)
    assert longer.normalized == pytest.approx(0.7533266524519008, rel=1e-11)

    assert shorter.p_i == pytest.approx(0.8, rel=1e-15)
    assert shorter.variation == pytest.approx(0.2575424759098899, rel=1e-12)
    assert shorter.reachability == pytest.approx(0.06548908013415841, rel=1e-11)
    assert shorter.normalized == pytest.approx(0.24667334754809908, rel=1e-11)

    assert math.fsum(r.normalized for r in records) == pytest.approx(1.0, abs=1e-12)
    assert all(r.branch is BranchChoice.LOWER for r in records)
    assert all(not r.degenerate for r in records)


def test_report_energy_column():
    records = reachability_report("0", 6, temperature=300.0)
    for r in records:
        assert r.energy == entropy_to_work(r.variation, 300.0)
        assert r.temperature == 300.0


def test_report_principal_branch():
    records = reachability_report("0", 6, branch=BranchChoice.PRINCIPAL)
    assert all(r.reachability >= 1.0 / math.e - 1e-12 for r in records)


def test_report_degenerate_single_solution():
    with pytest.warns(DegenerateSetWarning):
        records = reachability_report("0", 4)
    (only,) = records
    assert only.program_id == "0011"
    assert only.variation == 0.0
    assert only.reachability == 0.0  # lower-branch limit
    assert only.normalized == 1.0
    assert only.degenerate


def test_report_degenerate_principal_limit():
    with pytest.warns(DegenerateSetWarning):
        records = reachability_report("0", 4, branch=BranchChoice.PRINCIPAL)
    assert records[0].reachability == 1.0
    assert records[0].normalized == 1.0


@pytest.mark.parametrize("rho", ["", "0101"])
def test_report_variation_within_ulps_of_minus_p_log_p(rho):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        records = reachability_report(rho, 24, scheme=Scheme.LENGTH_WEIGHTED)
        assert len(records) > 10
        for r in records:
            exact = -r.p_i * mpmath.log(r.p_i, 2)
            assert abs(r.variation - exact) <= 4 * math.ulp(float(exact)), r.program_id


def test_report_empty_set():
    with pytest.raises(EmptySetError):
        reachability_report("01010101", 8)


@pytest.mark.parametrize("rho, max_len", [("0101", 4), ("0", 26), ("0", 6)],
                         ids=["empty-set", "over-budget", "solvable"])
def test_report_checks_temperature_and_branch_before_enumerating(rho, max_len):
    with pytest.raises(DomainError, match=r"^temperature must be finite and > 0 K, got -1.0$"):
        reachability_report(rho, max_len, temperature=-1.0)
    with pytest.raises(DomainError, match=r"^branch must be a BranchChoice, got 'lower'$"):
        reachability_report(rho, max_len, branch="lower")


def test_report_normalizes_by_the_sum_over_programs():
    """normalized is P over the correctly rounded sum of every record's P:
    a sum over classes of count * P rounds each product, and differs in
    the last bit for "000000" at 16 bits, length-weighted, principal."""
    for rho in ("000000", "111111", "0101"):
        for max_len in (16, 20):
            for scheme in Scheme:
                for branch in BranchChoice:
                    records = reachability_report(rho, max_len, scheme=scheme, branch=branch)
                    total = math.fsum(r.reachability for r in records)
                    assert [r.normalized for r in records] == [
                        r.reachability / total for r in records
                    ], (rho, max_len, scheme, branch)


def test_report_sorted_descending():
    records = reachability_report("00", 10)
    values = [r.reachability for r in records]
    assert values == sorted(values, reverse=True)
    assert math.fsum(r.normalized for r in records) == pytest.approx(1.0, abs=1e-12)


@given(target_bits)
@settings(max_examples=30, deadline=None)
def test_report_normalized_is_a_measure(rho):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSetWarning)
        records = reachability_report(rho, 12)
    total = math.fsum(r.normalized for r in records)
    assert total == pytest.approx(1.0, abs=1e-12)
    best = max(records, key=lambda r: r.reachability)
    assert max(records, key=lambda r: r.normalized) is best
