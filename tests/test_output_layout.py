"""The layout of `lambertw`, `reach`, `loss` and `report`, pinned without their
float digits.

test_golden_bytes.py pins whole bytes of `solve` and `search`, and of
`report` by REPORT_DIGEST, but leaves the other three out: they print values
of W, whose last digits are meant to change as W gets more accurate.
`report`'s layout is pinned here as well.  Every output is reduced to a
skeleton that keeps its shape and drops those digits, and one sha256 per command
covers the skeletons of a fixed invocation set:

* records and csv are parsed back: the keys of every row, their order, the
  row count and every field that is not a float stay; a float field is
  kept only as a marker, after checking that it reads back as a float;
* table lines keep everything but float tokens (any number with a point or
  an exponent, nan and inf), and runs of spaces collapse to one, so column
  widths that follow the digits do not count;
* a table ``key: value`` line whose key is a masked field has its whole
  value masked, as in records and csv, so a value that prints as an
  integer (``residual: 0``, ``hi: 10``, W's ``iterations``) is masked too.

Exit codes and stderr are kept verbatim.  DIGESTS read the same on the tree
before W stopped on its step, whose outputs differ from today's only in
digits and iteration counts.
"""

import csv
import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

from reachcalc import cli

DIGESTS = {
    "lambertw": "6d7d6f11b1e36d158200289f788e8aef4d6a2202523b5b56cd15decb9ad78a5b",
    "reach": "e7bd626033b6a8f90453907d29161ac272be876ca71d36044b35598377df1035",
    "loss": "7570822116d8fbf8af72aa73f30ea92df10a3fd2f16c8c5fe94a8c38c99d8c78",
    "report": "e6f462d660a765772471c1a6ba829d12c00f7b2a4b73382054f97a5124c2d314",
}

FORMATS = ("table", "records", "csv")
BRANCHES = ("lower", "principal")
MASKED = {
    "x", "w", "residual", "iterations", "variation", "reachability", "energy",
    "temperature", "z_hat", "z", "f_z_hat", "f_z", "divergence",
    "min_second_difference", "lo", "hi", "step", "p", "normalized",
}
_FLOAT_TOKEN = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=e))(?:e[-+]?\d+)?|[-+]?(?:nan|inf)")


def invocations() -> list[list[str]]:
    calls = []
    for fmt in FORMATS:
        for branch in BRANCHES:
            opts = ["--branch", branch, "--format", fmt]
            calls += [
                ["lambertw", *opts, "--", "-0.2"],
                ["lambertw", *opts, "--curve", "-0.3", "-0.05", "4"],
                ["lambertw", *opts, "--curve", "-0.1", "-0.1", "1"],
                ["reach", "--variation", "0.25", *opts],
                ["reach", "--energy", "7.177452411300664e-22", "--temp", "300", *opts],
                ["reach", "--curve", "0.01", "0.5", "4", *opts],
                ["report", "0101", "--max-len", "14", *opts],
                ["report", "0", "--max-len", "8", "--scheme", "uniform", "--temp", "77.5", *opts],
            ]
        calls += [
            ["lambertw", "2.5", "--branch", "principal", "--format", fmt],
            ["loss", "1.0", "0.0", "--format", fmt],
            ["loss", "--format", fmt, "--", "-0.3", "2.5"],
            ["loss", "--convexity-grid", "--format", fmt],
            ["report", "0", "--max-len", "4", "--format", fmt],  # one solution: a warning
        ]
    return calls


def _masked(key: str, value: str) -> str:
    if key not in MASKED:
        return value
    float(value)  # a masked field must still read back as a number
    return "#"


def skeleton(fmt: str, text: str) -> str:
    """text with float digits masked; see the module docstring."""
    lines = text.split("\n")
    assert lines[-1] == "", f"output does not end with a newline: {text[-40:]!r}"
    lines = lines[:-1]
    if fmt == "records":
        return "\n".join(
            " ".join(f"{key}={_masked(key, value)}"
                     for key, _, value in (pair.partition("=") for pair in line.split(" ")))
            for line in lines
        )
    if fmt == "csv":
        header, *rows = csv.reader(lines)
        return "\n".join(
            [",".join(header)]
            + [",".join(_masked(k, v) for k, v in zip(header, row, strict=True)) for row in rows]
        )
    out = []
    for line in lines:
        tokens = re.sub(" +", " ", line).split(" ")
        tokens = ["#" if _FLOAT_TOKEN.fullmatch(t) else t for t in tokens]
        if tokens[0].endswith(":") and tokens[0][:-1] in MASKED:
            tokens[1:] = ["#"]
        out.append(" ".join(tokens))
    return "\n".join(out)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digests() -> dict[str, str]:
    hashes = {command: hashlib.sha256() for command in DIGESTS}
    for argv in invocations():
        code, out, err = run(argv)
        assert code == 0, (argv, err)
        fmt = argv[argv.index("--format") + 1]
        line = json.dumps([argv, code, skeleton(fmt, out), err])
        hashes[argv[0]].update(line.encode() + b"\n")
    return {command: h.hexdigest() for command, h in hashes.items()}


def test_invocation_set_covers_the_contract():
    calls = invocations()
    seen = {(a[0], a[a.index("--format") + 1]) for a in calls}
    assert seen == {(command, fmt) for command in DIGESTS for fmt in FORMATS}
    for command in ("lambertw", "reach", "report"):
        assert {a[a.index("--branch") + 1] for a in calls
                if a[0] == command and "--branch" in a} == set(BRANCHES)
    assert any("--convexity-grid" in a for a in calls)
    assert any(a[0] == "lambertw" and "--curve" in a for a in calls)
    assert any(a[0] == "reach" and "--curve" in a for a in calls)


def test_a_skeleton_keeps_the_layout_and_drops_float_digits():
    table = "target: '0'  T: 77.5 K\nx     w\n-0.3  -1.78\n1e-05 nan\niterations: 4\n"
    assert skeleton("table", table) == "target: '0' T: # K\nx w\n# #\n# #\niterations: #"
    assert skeleton("records", "x=-0.3 branch=lower iterations=4\n") == (
        "x=# branch=lower iterations=#")
    assert skeleton("csv", "program,length,p\n0011,4,0.5\n") == "program,length,p\n0011,4,#"


def test_layout_matches_the_recorded_digests():
    assert digests() == DIGESTS
