"""Golden bytes: a fixed set of `solve` and `search` invocations, hashed.

Every invocation runs in process through cli.main; one sha256 covers each
argv with its exit code, stdout and stderr.  DIGEST was first recorded on
the tree before enumeration ran its candidates at the target's width, so any
change to what these commands print, or how they exit, shows here.  It was
recorded again when `search --max-len` became a usage error for the
exhaustive-by-size and size-descending policies, which had ignored it.  Those
calls then dropped the option, and the tree before that change gives the same
digest for the new set.
`report`, `lambertw`, `reach` and `loss` are left out: they print values
of W, whose last digits are meant to change as W gets more accurate.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from reachcalc import cli

DIGEST = "39bb64e4070eb87948683767540c0de5ef6b5a3f7f63caf882dd409cf9488e20"

TARGETS = ("", "0", "1", "01", "0000", "0101", "0110", "10110", "00000000",
           "0" * 16, "0110100110010110")
FORMATS = ("table", "records", "csv")
POLICIES = ("exhaustive-by-size", "size-descending", "reachability-greedy")


def invocations() -> list[list[str]]:
    calls = []
    for i, target in enumerate(TARGETS):
        for max_len in (0, 8, 12, 16):
            for scheme in ("lengthweighted", "uniform"):
                calls.append(["solve", target, "--max-len", str(max_len), "--scheme", scheme,
                              "--format", FORMATS[(i + max_len // 4) % 3]])
        for j, policy in enumerate(POLICIES):
            # --max-len bounds only the greedy policy; the others refuse it.
            max_len = ["--max-len", "16"] if policy == "reachability-greedy" else []
            for budget in ("1", "3000"):
                calls.append(["search", target, "--policy", policy, *max_len,
                              "--budget-programs", budget, "--format", FORMATS[(i + j) % 3]])
        calls.append(["search", target, "--policy", "size-descending", "--start-length", "16",
                      "--budget-programs", "3000", "--format", FORMATS[i % 3]])
    calls += [
        ["solve", "0", "--max-len", "26"],
        ["solve", "0", "--max-len", "7"],
        ["solve", "01a1"],
        ["solve", "0" * 65],
        ["search", "0", "--policy", "best-first"],
        ["search", "0101", "--policy", "size-descending", "--budget-energy", "1e-23"],
        ["search", "0", "--policy", "exhaustive-by-size", "--start-length", "5"],
    ]
    return calls


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(calls: list[list[str]]) -> str:
    h = hashlib.sha256()
    for argv in calls:
        h.update(json.dumps([argv, *run(argv)]).encode() + b"\n")
    return h.hexdigest()


def test_invocation_set_covers_the_contract():
    calls = invocations()
    assert len(calls) >= 120
    flags = {(a[0], a[a.index(flag) + 1]) for a in calls
             for flag in ("--format", "--policy", "--scheme") if flag in a}
    assert {("solve", f) for f in FORMATS} | {("search", f) for f in FORMATS} <= flags
    assert {("search", p) for p in POLICIES} <= flags
    assert {("solve", "uniform"), ("solve", "lengthweighted")} <= flags


def test_solve_and_search_bytes_match_the_recorded_digest():
    assert digest(invocations()) == DIGEST
