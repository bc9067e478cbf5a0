"""Self-test of the benchmark itself.

Run from the root of a reachcalc checkout:

    python3 reachbench/selftest.py

It shows that
* the check counts an op as failed when one printed digit is flipped, one
  solution or trace row is dropped, or one trace outcome is wrong;
* the per-layer counts of two traced runs of one seed are equal;
* compare.py refuses results from different machine kernels.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import reachcalc.cli as cli  # noqa: E402

from check import Checker  # noqa: E402
from compare import BackendMismatch, compare  # noqa: E402
from layers import EXACT_COUNTS  # noqa: E402
from run import run_op  # noqa: E402
from workloads import Op  # noqa: E402


def flip_last_digit(text: str, field: str) -> str:
    """Change the last digit of the first value printed under `field`."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        start = line.find(field + "=")
        if start >= 0:
            end = line.find(" ", start)
            end = len(line.rstrip("\n")) if end < 0 else end
            digit = line[end - 1]
            lines[i] = line[:end - 1] + str((int(digit) + 1) % 10) + line[end:]
            return "".join(lines)
    raise AssertionError(f"no {field}= in output")


def drop_line(text: str, index: int) -> str:
    lines = text.splitlines(keepends=True)
    del lines[index]
    return "".join(lines)


def expect(checker, op, code, out, err, ok: bool, what: str) -> None:
    reason = checker(op, code, out, err)
    if (reason is None) != ok:
        raise AssertionError(f"{what}: check said {reason!r}")
    print(f"ok  {what}" + ("" if ok else f"  ({reason[:90]})"))


def test_check_catches_errors() -> None:
    checker = Checker()
    info = {"target": "0101", "max_len": 16, "scheme": "lengthweighted"}
    op = Op(["solve", "0101", "--max-len", "16", "--format", "records"], "solve", "records",
            "ok", info)
    _, code, out, err = run_op(cli.main, op)
    expect(checker, op, code, out, err, True, "solve output as printed passes")
    expect(checker, op, code, flip_last_digit(out, "p"), err, False, "flipped digit fails")
    expect(checker, op, code, drop_line(out, 1), err, False, "dropped program fails")
    expect(checker, op, 1, out, err, False, "wrong exit code fails")

    info = {"target": "01101", "policy": "exhaustive-by-size", "budget": 100_000}
    base = ["search", "01101", "--policy", "exhaustive-by-size"]
    table = Op(base + ["--format", "table"], "search", "table", "ok", info)
    trace = Op(base + ["--format", "records"], "search", "records", "ok", info)
    _, code, t_out, t_err = run_op(cli.main, table)
    _, code, out, err = run_op(cli.main, trace)
    expect(checker, table, code, t_out, t_err, True, "search summary passes")
    expect(checker, trace, code, out, err, True, "search trace passes")
    hit = out.replace("outcome=miss", "outcome=hit", 1)
    expect(Checker(), trace, code, hit, err, False, "miss printed as hit fails")
    expect(checker, trace, code, drop_line(out, 0), err, False,
           "trace row dropped fails (programs_run != rows)")


def test_counts_repeat() -> None:
    for workload in ("enumerate", "numeric", "search"):
        runs = []
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, timeout=600, check=True)
            metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
            runs.append({k: metrics[k]["value"] for k in EXACT_COUNTS})
        if runs[0] != runs[1]:
            raise AssertionError(f"{workload}: counts differ between runs: {runs}")
        print(f"ok  {workload}: counts repeat exactly {runs[0]}")


def test_backends_not_compared() -> None:
    def result(backend):
        return {"workload": "enumerate", "env": {"core_backend": backend},
                "metrics": {"throughput_ops_s": 1.0}, "error_rate": 0.0}

    compare([result("pure")], [result("pure")])
    try:
        compare([result("pure")], [result("compiled")])
    except BackendMismatch:
        print("ok  results from different kernels are refused")
        return
    raise AssertionError("compare accepted results from different kernels")


if __name__ == "__main__":
    test_check_catches_errors()
    test_backends_not_compared()
    test_counts_repeat()
    print("selftest passed")
