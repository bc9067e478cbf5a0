"""The byte-identity corpus: fixed CLI calls, hashed one by one and by group.

Every call runs in process through reachcalc.cli.main with stdout and stderr
captured.  Its line is json.dumps([argv, exit code, stdout, stderr]) plus a
newline, and a group's digest is the sha256 of its lines in order.  The
groups, each built in code with no random draw left open:

* golden: the `solve` and `search` calls that tests/test_golden_bytes.py pins
  as DIGEST;
* report: the `report` calls it pins as REPORT_DIGEST;
* extra: `lambertw`, `reach` and `loss` in every format and branch, and two
  searches on 16 zeros, whose records and csv traces list 100,000 rows;
* base: golden, report and extra, in that order;
* long: `solve`, `report` and `search` on targets of 65-4,096 bits;
* all: base, then long.

Run it from a checkout with any supported Python; it needs neither pytest
nor an install:

    python tests/corpus.py                  # one sha256 per group
    python tests/corpus.py --compare DIR    # the calls whose bytes differ
                                            # between this tree and DIR

--compare runs this file's calls on the package under DIR/src in a second
interpreter (`--hashes DIR`, one sha256 per call) and prints each call
whose line differs, then exits 1 if any did.  pytest does not collect
this module; test_golden_bytes.py imports its call sets and pins the
digest of its subset().
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TREE = Path(__file__).resolve().parent.parent

TARGETS = ("", "0", "1", "01", "0000", "0101", "0110", "10110", "00000000",
           "0" * 16, "0110100110010110")
FORMATS = ("table", "records", "csv")
POLICIES = ("exhaustive-by-size", "size-descending", "reachability-greedy")
REPORT_TARGETS = ("", "0", "01", "0000", "0110", "10110")
SCHEMES = ("lengthweighted", "uniform")
BRANCHES = ("lower", "principal")
# solve past 8 bits and 16 bits of program, where classes of more than 8
# opcodes are built: doubling targets, then targets drawn once from
# random.Random(28) at 12-16 bits, most with no solution of <= 24 bits.
# Each max-len stays low enough that these calls take under 1 s in all.
LONG_SOLVES = (("0101" * 3, 18), ("0101" * 3, 20), ("0110" * 4, 18), ("0110" * 4, 20),
               ("01" * 8, 18), ("01" * 8, 20), ("01" * 8, 22),
               ("000011000100", 18), ("000011000100", 20), ("101011010111100", 22),
               ("0001000110010100", 24), ("110101001001", 24), ("101110001010000", 24),
               ("000110001010000", 24))


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


def extra_invocations() -> list[list[str]]:
    """Per format: seven calls under each branch, then seven more."""
    calls = []
    for fmt in FORMATS:
        f = ["--format", fmt]
        for branch in BRANCHES:
            b = ["--branch", branch]
            calls += [
                ["lambertw", *b, *f, "--", "-0.2"],
                ["lambertw", *b, *f, "--curve", "-0.3", "-0.05", "5"],
                ["lambertw", *b, *f, "--curve", "-0.1", "-0.1", "1"],
                ["reach", "--variation", "0.25", *b, *f],
                ["reach", "--energy", "7.177452411300664e-22", "--temp", "300", *b, *f],
                ["reach", "--curve", "0.01", "0.5", "5", *b, *f],
                ["reach", "--curve", "0.001", "0.53", "9", *b, *f],
            ]
        calls += [
            ["lambertw", "2.5", "--branch", "principal", *f],
            ["lambertw", "--curve", "-0.3678", "100", "12", "--branch", "principal", *f],
            ["loss", "1.0", "0.0", *f],
            ["loss", *f, "--", "-0.3", "2.5"],
            ["loss", "--convexity-grid", *f],
            ["search", "0" * 16, "--policy", "exhaustive-by-size", *f],
            ["search", "0" * 16, "--policy", "size-descending", *f],
        ]
    return calls


def long_targets() -> list[str]:
    """Targets of 65-4,096 bits: runs of zeros and a square near the old
    64-bit limit, then, from random.Random(33), two random targets and two
    periodic ones whose unit of 1-8 bits repeats to 65-4,096 bits."""
    rng = random.Random(33)
    targets = ["0" * 65, "0" * 128, "01" * 40, "0" * 4096]
    for _ in range(2):
        targets.append("".join(rng.choice("01") for _ in range(rng.randint(65, 4096))))
        unit = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        targets.append((unit * 4096)[: rng.randint(65, 4096)])
    return targets


def long_invocations() -> list[list[str]]:
    """Six calls per long target: solve and report at 24 bits and a
    three-program trace, their format cycling with the target, then each
    search policy as a table, which prints its summary and no rows."""
    calls = []
    for i, target in enumerate(long_targets()):
        f = ["--format", FORMATS[i % 3]]
        calls += [
            ["solve", target, "--max-len", "24", *f],
            ["report", target, "--max-len", "24", *f],
            ["search", target, "--policy", "exhaustive-by-size", "--budget-programs", "3", *f],
            ["search", target, "--policy", "size-descending"],
            ["search", target, "--policy", "exhaustive-by-size"],
            ["search", target, "--policy", "reachability-greedy", "--max-len", "24"],
        ]
    return calls


def groups() -> dict[str, list[list[str]]]:
    golden, report, extra, long = (invocations(), report_invocations(), extra_invocations(),
                                   long_invocations())
    base = golden + report + extra
    return {"golden": golden, "report": report, "extra": extra, "base": base, "long": long,
            "all": base + long}


def subset() -> list[list[str]]:
    """A fixed stratified sample of the corpus: every 7th call of golden,
    report and long and every 6th of extra, from the first.  Each stride is
    prime to the period of its group's calls (six per long target, seven per
    branch in extra), so the sample takes every kind of call there, and
    none of extra's 100,000-row traces."""
    strides = {"golden": 7, "report": 7, "extra": 6, "long": 7}
    named = groups()
    return [argv for name, stride in strides.items() for argv in named[name][::stride]]


def run(argv: list[str]) -> tuple[int, str, str]:
    from reachcalc import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def line(argv: list[str]) -> bytes:
    return json.dumps([argv, *run(argv)]).encode() + b"\n"


def digest(calls: list[list[str]]) -> str:
    h = hashlib.sha256()
    for argv in calls:
        h.update(line(argv))
    return h.hexdigest()


def _call_hashes(calls: list[list[str]]) -> list[str]:
    return [hashlib.sha256(line(argv)).hexdigest() for argv in calls]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="DIR",
                        help="name the calls whose bytes differ from the tree at DIR")
    parser.add_argument("--hashes", metavar="DIR",
                        help="print one sha256 per call, run on the package under DIR/src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.hashes or TREE) / "src"))
    calls = groups()["all"]
    if args.hashes:
        print("\n".join(_call_hashes(calls)))
        return 0
    if args.compare is None:
        lines = {tuple(argv): line(argv) for argv in calls}  # each call runs once
        for name, group in groups().items():
            h = hashlib.sha256(b"".join(lines[tuple(argv)] for argv in group))
            print(f"{name} {len(group)} {h.hexdigest()}")
        return 0
    other = subprocess.run([sys.executable, __file__, "--hashes", args.compare],
                           capture_output=True, text=True, check=True).stdout.split()
    differ = [argv for argv, mine, theirs in zip(calls, _call_hashes(calls), other)
              if mine != theirs]
    for argv in differ:  # a long target shows as its first bits and its width
        print(" ".join(w if len(w) <= 24 else f"{w[:16]}...({len(w)} bits)" for w in argv))
    print(f"{len(differ)} of {len(calls)} calls differ from {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
