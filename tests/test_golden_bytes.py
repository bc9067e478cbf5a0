"""Golden bytes: a fixed set of `solve` and `search` invocations, hashed.

Every invocation runs in process through cli.main; one sha256 covers each
argv with its exit code, stdout and stderr.  DIGEST was first recorded on
the tree before enumeration ran its candidates at the target's width, so any
change to what these commands print, or how they exit, shows here.  It was
recorded again when `search --max-len` became a usage error for the
exhaustive-by-size and size-descending policies, which had ignored it.  Those
calls then dropped the option, and the tree before that change gives the same
digest for the new set.  It was recorded once more when LONG_SOLVES joined
the set, on the tree before enumeration took each class's DOUBLE-led hits
from the class below; the tree after that change gives the same digest.
`report` prints values of W, which test_lambertw.py holds within 4 ulps of
the exact value, so its bytes are pinned too, by REPORT_DIGEST, first
recorded on the tree before `solve` and `report` built their rows once per
length class.
`loss --convexity-grid` prints one fixed certificate, so its stdout is
pinned byte for byte in each format, by CONVEXITY_GRID, recorded on the tree
before the certificate evaluated f once per grid point.  The other `lambertw`,
`reach` and `loss` calls are left out; test_output_layout.py pins their
layout.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from reachcalc import cli

DIGEST = "9117ac64db2db5700428bf22385afb63027d327feea402fbb235f90201eff148"
REPORT_DIGEST = "38f602af3ea1d1b67f698e7d5f4a9837ffc29ea2e10f279e87122cd29b678258"

TARGETS = ("", "0", "1", "01", "0000", "0101", "0110", "10110", "00000000",
           "0" * 16, "0110100110010110")
FORMATS = ("table", "records", "csv")
POLICIES = ("exhaustive-by-size", "size-descending", "reachability-greedy")
REPORT_TARGETS = ("", "0", "01", "0000", "0110", "10110")
SCHEMES = ("lengthweighted", "uniform")
# solve past 8 bits and 16 bits of program, where classes of more than 8
# opcodes are built: doubling targets, then targets drawn once from
# random.Random(28) at 12-16 bits, most with no solution of <= 24 bits.
# Each max-len stays low enough that these calls take under 1 s in all.
LONG_SOLVES = (("0101" * 3, 18), ("0101" * 3, 20), ("0110" * 4, 18), ("0110" * 4, 20),
               ("01" * 8, 18), ("01" * 8, 20), ("01" * 8, 22),
               ("000011000100", 18), ("000011000100", 20), ("101011010111100", 22),
               ("0001000110010100", 24), ("110101001001", 24), ("101110001010000", 24),
               ("000110001010000", 24))
BRANCHES = ("lower", "principal")
CONVEXITY_GRID = {
    "table": "convex: true\nmin_second_difference: 1.67487995945e-07\npoints: 1035\n"
             "lo: -0.366879441171\nhi: 10\nstep: 0.01\n",
    "records": "convex=true min_second_difference=1.67487995945e-07 points=1035 "
               "lo=-0.366879441171 hi=10 step=0.01\n",
    "csv": "convex,min_second_difference,points,lo,hi,step\n"
           "true,1.67487995945e-07,1035,-0.366879441171,10,0.01\n",
}


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
    for i, (target, max_len) in enumerate(LONG_SOLVES):
        calls.append(["solve", target, "--max-len", str(max_len), "--scheme", SCHEMES[i % 2],
                      "--format", FORMATS[i % 3]])
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


def report_invocations() -> list[list[str]]:
    calls = []
    for i, target in enumerate(REPORT_TARGETS):
        for max_len in range(0, 26, 2):
            for j, (scheme, branch) in enumerate((s, b) for s in SCHEMES for b in BRANCHES):
                temp = ["--temp", "77.5"] if (i + j) % 2 else []
                calls.append(["report", target, "--max-len", str(max_len), "--scheme", scheme,
                              "--branch", branch, "--format", FORMATS[(i + j + max_len // 2) % 3],
                              *temp])
    for fmt in FORMATS:
        calls += [
            ["report", "0", "--max-len", "4", "--format", fmt],  # one program: a warning
            ["report", "0", "--max-len", "4", "--branch", "principal", "--format", fmt],
            ["report", "01010101", "--max-len", "8", "--format", fmt],  # no solution
            ["report", "0", "--max-len", "26", "--format", fmt],  # over the budget
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


def test_report_invocation_set_covers_the_contract():
    calls = report_invocations()
    assert len(calls) >= 300
    flags = {(flag, a[a.index(flag) + 1]) for a in calls
             for flag in ("--format", "--scheme", "--branch", "--max-len") if flag in a}
    assert {("--format", f) for f in FORMATS} <= flags
    assert {("--scheme", s) for s in SCHEMES} | {("--branch", b) for b in BRANCHES} <= flags
    assert {("--max-len", str(n)) for n in range(0, 28, 2)} <= flags
    assert sum("--temp" in a for a in calls) and sum("--temp" not in a for a in calls)


def test_report_bytes_match_the_recorded_digest():
    assert digest(report_invocations()) == REPORT_DIGEST


def test_convexity_grid_bytes_match_the_recorded_output():
    for fmt in FORMATS:
        assert run(["loss", "--convexity-grid", "--format", fmt]) == (0, CONVEXITY_GRID[fmt], "")
