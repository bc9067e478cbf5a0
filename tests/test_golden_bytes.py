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

DIGEST was recorded again when targets of more than 64 bits became valid:
its one changed call is `solve "0"*65`, which had been a DomainError and
now prints the target's solutions of up to 24 bits.

The call sets are built in corpus.py, which also holds the `lambertw`,
`reach` and `loss` calls and calls on targets of 65-4,096 bits, and hashes
each group when run as a script.  SUBSET_DIGEST pins its fixed stratified
subset, recorded on the tree that first let targets exceed 64 bits.
"""

from corpus import (
    BRANCHES,
    FORMATS,
    POLICIES,
    SCHEMES,
    digest,
    invocations,
    report_invocations,
    run,
    subset,
)

DIGEST = "2d81ef83bcacd185733f37e633bb4254eddbacb2be790347e9faff47d1f66074"
REPORT_DIGEST = "38f602af3ea1d1b67f698e7d5f4a9837ffc29ea2e10f279e87122cd29b678258"
SUBSET_DIGEST = "19b55fdd7295e795d45120890aa4b3f892bd5dcd4ea93f65861e12f9ddbc8d01"
CONVEXITY_GRID = {
    "table": "convex: true\nmin_second_difference: 1.67487995945e-07\npoints: 1035\n"
             "lo: -0.366879441171\nhi: 10\nstep: 0.01\n",
    "records": "convex=true min_second_difference=1.67487995945e-07 points=1035 "
               "lo=-0.366879441171 hi=10 step=0.01\n",
    "csv": "convex,min_second_difference,points,lo,hi,step\n"
           "true,1.67487995945e-07,1035,-0.366879441171,10,0.01\n",
}


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


def test_corpus_subset_bytes_match_the_recorded_digest():
    calls = subset()
    assert {argv[0] for argv in calls} == {"lambertw", "reach", "solve", "report", "search",
                                           "loss"}
    assert max(len(argv[1]) for argv in calls if argv[0] in ("solve", "search")) > 64
    assert digest(calls) == SUBSET_DIGEST


def test_convexity_grid_bytes_match_the_recorded_output():
    for fmt in FORMATS:
        assert run(["loss", "--convexity-grid", "--format", fmt]) == (0, CONVEXITY_GRID[fmt], "")
