"""The benchmark's reference checker as a tier-1 oracle.

reachbench/check.py judges what a CLI op prints against references that
share no code with the package: every printed float against a 50-digit
mpmath value at 4 ulps, solution lists against its own target-prefix walk,
and every hit row of a search trace on its own interpreter.  Here one
fixed-seed deck of each timed workload, every op of it, runs through
cli.main, and the checker must find no fault.  A mutant of one printed
output per deck shows that it would find one.  The benchmark's defect probe
(a numeric deck of W, reachability and loss ops, and a few reports) must
pass the same checker for the first five probe seeds.

The benchmark's modules are loaded from their files, the way
test_bench_tracer.py loads layers.py; check.py imports reference and
workloads by those names, so both are registered under them while the
tests run.
"""

import importlib.util
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from reachcalc import cli

BENCH = Path(__file__).resolve().parent.parent / "reachbench"
SEED = 1


@pytest.fixture(scope="module")
def bench():
    """(check, workloads, mpmath), loaded from reachbench/."""
    mpmath = pytest.importorskip("mpmath")
    dps = mpmath.mp.dps
    with pytest.MonkeyPatch.context() as patch:
        modules = {}
        for name in ("reference", "workloads", "check"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
        mpmath.mp.dps = dps  # reference.py sets 50 digits; the checks below ask for them
        yield modules["check"], modules["workloads"], mpmath


def run_op(op) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(op.argv)
    return code, out.getvalue(), err.getvalue()


def flip_last_digit(text: str) -> str:
    i = max(text.rfind(d) for d in "0123456789")
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def drop_last_row(text: str) -> str:
    return text[: text.rstrip("\n").rfind("\n") + 1]


@pytest.mark.parametrize("workload", ["enumerate", "search"])
def test_every_op_of_a_deck_passes_the_benchmark_checker(bench, workload):
    check, workloads, mpmath = bench
    ops = workloads.DECKS[workload](random.Random(SEED))
    checker = check.Checker()
    printed = {}
    failures = []
    with mpmath.workdps(50):
        for op in ops:
            printed[id(op)] = result = run_op(op)
            reason = checker(op, *result)
            if reason is not None:
                failures.append(f"{' '.join(op.argv)} -> {reason}")
        assert failures == []

        # The mutants.  Every deck holds a convexity grid, whose output in
        # any format ends in the echoed step 0.01; a search deck holds
        # trace twins of its summaries, so a dropped row shows as
        # programs_run against the row count.
        if workload == "enumerate":
            op = next(op for op in ops if op.kind == "convexity")
            code, out, err = printed[id(op)]
            mutant = flip_last_digit(out)
        else:
            op = min((op for op in ops if op.kind == "search" and op.fmt != "table"),
                     key=lambda op: len(printed[id(op)][1]))
            code, out, err = printed[id(op)]
            mutant = drop_last_row(out)
        assert mutant != out
        assert checker(op, code, mutant, err) is not None, op.argv


@pytest.mark.parametrize("seed", range(1, 6))
def test_the_defect_probe_passes_the_benchmark_checker(bench, seed):
    # Drawn as run.py draws it for --seed SEED.
    check, workloads, mpmath = bench
    checker = check.Checker()
    failures = []
    with mpmath.workdps(50):
        for op in workloads.defect_probe(random.Random(f"defect probe {seed}")):
            reason = checker(op, *run_op(op))
            if reason is not None:
                failures.append(f"{' '.join(op.argv)} -> {reason}")
    assert failures == []
