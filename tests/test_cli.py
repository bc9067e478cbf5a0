"""End-to-end tests of the command-line interface.

Commands run in-process through cli.main(argv) so exit codes and exact
output bytes can be asserted cheaply.  Two subprocess tests cover the
console script: one runs the entry point declared in pyproject.toml against
the tree under test, the way an installed wrapper would; the other runs the
installed `reachcalc` wrapper itself wherever one is on PATH.
"""

import argparse
import decimal
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reachcalc
from reachcalc import cli
from reachcalc.formats import parse_records
from reachcalc.machine import enumerate_solutions, kolmogorov_upper
from reachcalc.reachability import reach_from_variation


def run_cli(*argv):
    return cli.main(list(argv))


# -------------------------------------------------------------------- lambertw


def test_lambertw_scalar_table(capsys):
    assert run_cli("lambertw", "1", "--branch", "principal") == 0
    out = capsys.readouterr().out
    assert "w: 0.56714329041" in out
    assert "branch: principal" in out
    assert "iterations:" in out


def test_lambertw_records(capsys):
    assert run_cli("lambertw", "1", "--branch", "principal", "--format", "records") == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("x=1 branch=principal w=0.56714329041 residual=")


def test_lambertw_default_branch_is_lower(capsys):
    assert run_cli("lambertw", "--", "-0.1") == 0
    out = capsys.readouterr().out
    assert "branch: lower" in out


def test_lambertw_near_the_float_maximum(capsys):
    assert run_cli("lambertw", "--branch", "principal", "1.7e308") == 0
    out = capsys.readouterr().out
    assert "w: 703.171236451\n" in out


def test_lambertw_domain_error_exit_code(capsys):
    assert run_cli("lambertw", "--", "-1") == 1
    assert "DomainError" in capsys.readouterr().err


def test_lambertw_requires_an_argument(capsys):
    assert run_cli("lambertw") == 3
    assert "usage error" in capsys.readouterr().err


def test_lambertw_curve_csv(capsys):
    assert run_cli(
        "lambertw", "--curve", "0", "1", "5", "--branch", "principal", "--format", "csv"
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,w"
    assert len(lines) == 6
    assert lines[1] == "0,0"
    assert lines[-1].startswith("1,0.56714329041")


# ----------------------------------------------------------------------- reach


def test_reach_variation_table(capsys):
    assert run_cli("reach", "--variation", "0.5") == 0
    out = capsys.readouterr().out
    assert "reachability: 0.25" in out
    assert "branch: lower" in out
    assert "temperature: 300" in out


def test_reach_energy_roundtrip(capsys):
    assert run_cli("reach", "--energy", "7.177452411300664e-22") == 0
    out = capsys.readouterr().out
    assert "variation: 0.25" in out
    assert "reachability: 0.0625" in out


def test_reach_needs_exactly_one_input(capsys):
    assert run_cli("reach") == 3
    assert run_cli("reach", "--variation", "0.25", "--energy", "1e-22") == 3


def test_reach_energy_where_the_landauer_unit_underflows(capsys):
    # k T ln2 is 0 below about 1.8e-301 K: an energy cannot be divided by it,
    # while a variation times it is an energy of 0.
    assert run_cli("reach", "--energy", "1e-30", "--temp", "1e-301") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "DomainError: k T ln2 underflows to 0 at T = 1e-301 K, "
        "so work cannot be converted to bits\n"
    )
    assert run_cli("reach", "--variation", "0.1", "--temp", "1e-320") == 0
    assert capsys.readouterr().out == (
        "variation: 0.1\nreachability: 0.0170154534187\nbranch: lower\nenergy: 0\n"
        "temperature: 9.99988867183e-321\n"
    )


def test_reach_domain_error(capsys):
    assert run_cli("reach", "--variation", "0.6") == 1
    assert "DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--variation", "--energy"])
def test_reach_degenerate_warns_in_one_line(flag, capsys):
    assert run_cli("reach", flag, "0") == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "variation: 0\nreachability: 0\nbranch: lower\nenergy: 0\ntemperature: 300\n"
    )
    assert captured.err == (
        "warning: zero entropy variation: deterministic solution set, "
        "reachability is the limiting value\n"
    )


def test_warnings_need_only_a_write_method_on_stderr(monkeypatch, capsys):
    # An embedding program may hand main a stream with nothing but write().
    class Sink:
        def __init__(self):
            self.parts = []

        def write(self, text):
            self.parts.append(text)
            return len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stderr", sink)
    assert run_cli("reach", "--variation", "0") == 0
    assert run_cli("reach", "--variation", "0.25") == 0
    assert "".join(sink.parts).count("warning: zero entropy variation") == 1


def test_curve_point_count_is_bounded(monkeypatch, capsys):
    def sample(*args):
        raise AssertionError("a curve over the limit was sampled")

    monkeypatch.setattr(cli, "w_curve", sample)
    start = time.perf_counter()
    argv = ("lambertw", "--curve", "0", "1", "100000000000", "--branch", "principal")
    assert run_cli(*argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("ResourceExceeded:")
    assert "100000000000" in err and str(cli._MAX_CURVE_POINTS) in err


def test_curve_point_limit_is_inclusive():
    assert cli._curve(["0", "1", str(cli._MAX_CURVE_POINTS)]) == (0.0, 1.0, 100_000)


def test_curve_whose_span_times_i_overflows_prints_every_point(capsys):
    # i * (hi - lo) is inf for the last 19 interior points; each is still a finite double.
    argv = ("lambertw", "--curve", "0", "1e306", "200", "--branch", "principal", "--format", "csv")
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert len(rows) == 200
    xs = [float(x) for x, _ in rows]
    assert xs == sorted(xs) and xs[-1] == 1e306
    assert rows[-2] == ["9.94974874372e+305", "698.03772751"]


def test_reach_curve_endpoint(capsys):
    assert run_cli(
        "reach", "--curve", "0.01", "0.530737845423043", "50", "--format", "csv"
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "variation,reachability"
    assert len(lines) == 51
    assert lines[-1].endswith("0.367879441171")  # 1/e at the bound


# ----------------------------------------------------------------------- solve


def test_solve_table_header(capsys):
    assert run_cli("solve", "0", "--max-len", "6") == 0
    out = capsys.readouterr().out
    for needle in ("target: 0", "solutions: 2", "k_upper: 4", "witness: 0011"):
        assert needle in out


def test_solve_header_matches_kolmogorov_upper(capsys):
    # The header reads K and its witness from the solution set's shortest
    # class; it must name the first of the enumerated solutions, which come
    # in (length, lex) order.  "00" has two shortest solutions; the witness
    # is the lexicographic first.
    for rho, max_len in (("", 6), ("0", 6), ("00", 8), ("0101", 12), ("01010101", 8)):
        assert run_cli("solve", rho, "--max-len", str(max_len)) == 0
        header = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[:5]
        )
        programs = enumerate_solutions(rho, max_len).programs
        assert header["k_upper"] == (str(programs[0].length) if programs else "none")
        assert header["witness"] == (programs[0].bits if programs else "none")


def test_solve_header_k_equals_kolmogorov_upper(capsys):
    # Every target of 0-6 bits at every even max-len 0-16: the set is empty
    # exactly when K > max_len, and otherwise its first program is the
    # prefix walk's first hit in the shortest class.
    for width in range(7):
        for value in range(2 ** width):
            rho = format(value, f"0{width}b") if width else ""
            for max_len in range(0, 17, 2):
                assert run_cli("solve", rho, "--max-len", str(max_len)) == 0
                lines = capsys.readouterr().out.splitlines()[3:5]
                bound = kolmogorov_upper(rho)
                assert lines == ([f"k_upper: {bound.bits}", f"witness: {bound.witness.bits}"]
                                 if bound.bits <= max_len
                                 else ["k_upper: none", "witness: none"]), (rho, max_len)


def test_solve_records(capsys):
    assert run_cli("solve", "0", "--max-len", "6", "--format", "records") == 0
    assert capsys.readouterr().out == (
        "program=0011 length=4 p=0.8\nprogram=100011 length=6 p=0.2\n"
    )


def test_solve_empty_target(capsys):
    assert run_cli("solve", "", "--max-len", "6", "--format", "records") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in lines] == ["program=11", "program=1011", "program=101011"]


def test_solve_no_solutions(capsys):
    assert run_cli("solve", "01010101", "--max-len", "8") == 0
    out = capsys.readouterr().out
    assert "solutions: 0" in out
    assert "k_upper: none" in out


def test_solve_input_file(tmp_path, capsys):
    inline_code = run_cli("solve", "0", "--max-len", "6", "--format", "records")
    inline = capsys.readouterr().out
    path = tmp_path / "target.txt"
    path.write_text("0\n")
    assert run_cli("solve", "--input", str(path), "--max-len", "6", "--format", "records") == 0
    assert capsys.readouterr().out == inline
    assert inline_code == 0


def test_solve_rejects_both_target_forms(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("0")
    assert run_cli("solve", "0", "--input", str(path)) == 3


def test_solve_missing_file_is_usage(capsys):
    assert run_cli("solve", "--input", "/no/such/file") == 3


def test_solve_without_a_target_is_usage(capsys):
    assert run_cli("solve") == 3
    assert capsys.readouterr().err.startswith("usage error: missing target")


def test_solve_bad_file_contents(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("xyz")
    assert run_cli("solve", "--input", str(path)) == 1
    assert "DomainError" in capsys.readouterr().err


def test_solve_bad_file_error_marks_only_a_cut(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("012")
    assert run_cli("solve", "--input", str(path)) == 1
    assert capsys.readouterr().err == "DomainError: program text must be over {0,1}, got '012'\n"
    path.write_text("2" * 41)
    assert run_cli("solve", "--input", str(path)) == 1
    assert capsys.readouterr().err.endswith(f"got {'2' * 40!r}...\n")


@pytest.mark.parametrize("command", ["solve", "report", "search"])
@pytest.mark.parametrize(
    "data, shown",
    [(b"01\xc3\xa9\n", r"'01\udcc3\udca9'"), (b"0\xa01\n", r"'0\udca01'")],
    ids=["utf8", "latin1-nbsp"],
)
def test_input_with_non_ascii_bytes_is_a_domain_error(tmp_path, capsys, command, data, shown):
    # A non-ASCII byte is rejected like any other non-bit, never skipped
    # as whitespace (0xA0 is a space in Latin-1).
    path = tmp_path / "t.txt"
    path.write_bytes(data)
    assert run_cli(command, "--input", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"DomainError: program text must be over {{0,1}}, got {shown}\n"


def test_solve_budget_exit_code(capsys):
    assert run_cli("solve", "0", "--max-len", "26") == 2
    assert "ResourceExceeded" in capsys.readouterr().err


def test_solve_budget_error_text(capsys):
    # Any --max-len above 24 exits 2 at once: the gate forms no power of it.
    for max_len in ("26", "100000000000"):
        assert run_cli("solve", "0", "--max-len", max_len) == 2
        assert capsys.readouterr().err == (
            f"ResourceExceeded: 2^{max_len} candidate strings exceed the enumeration budget "
            "16777216\n"
        )


# ---------------------------------------------------------------------- report


def test_report_records_sorted(capsys):
    assert run_cli("report", "0", "--max-len", "6", "--format", "records") == 0
    out = capsys.readouterr().out
    # The second reachability is 0.065489080134108495 to 17 digits (mpmath).
    assert out == (
        "program=100011 length=6 p=0.2 variation=0.464385618977 "
        "reachability=0.2 energy=1.33324227228e-21\n"
        "program=0011 length=4 p=0.8 variation=0.25754247591 "
        "reachability=0.0654890801341 energy=7.39399545893e-22\n"
    )


def test_report_table_has_normalized_column(capsys):
    assert run_cli("report", "0", "--max-len", "6") == 0
    out = capsys.readouterr().out
    assert "normalized" in out
    assert "target: '0'" in out


def test_report_degenerate_warns_on_stderr(capsys):
    assert run_cli("report", "0", "--max-len", "4", "--format", "records") == 0
    captured = capsys.readouterr()
    assert captured.out == "program=0011 length=4 p=1 variation=0 reachability=0 energy=0\n"
    assert "warning:" in captured.err


def test_report_empty_set(capsys):
    assert run_cli("report", "01010101", "--max-len", "8") == 1
    assert "EmptySetError" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["report", "0101", "--max-len", "4", "--temp", "-1"],
                                  ["report", "0", "--max-len", "26", "--temp", "-1"]],
                         ids=["empty-set", "over-budget"])
def test_report_rejects_a_bad_temperature_before_enumerating(argv, capsys):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "DomainError: temperature must be finite and > 0 K, got -1.0\n"


@pytest.mark.parametrize("argv, rows", [
    (["solve", "0", "--max-len", "24", "--format", "records"], 11),
    (["report", "0", "--max-len", "24", "--format", "records"], 11),
], ids=["solve", "report"])
def test_solutions_are_not_validated_one_by_one(argv, rows, capsys, monkeypatch):
    """The kernel's hits are valid by construction, and solve reads its
    witness from them too, so no program goes through the validator."""
    from reachcalc import machine

    calls = []
    validate = machine._validate_program_bits

    def spy(bits):
        calls.append(bits)
        validate(bits)

    monkeypatch.setattr(machine, "_validate_program_bits", spy)
    assert run_cli(*argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == rows
    assert calls == []


def test_report_inverts_w_once_per_distinct_weight(capsys, monkeypatch):
    # All solutions of one length share their weight under both schemes, so
    # a report up to 16 bits inverts the variation at most 16 / 2 times:
    # once per solution length, or once in all under the uniform scheme.
    from reachcalc import machine

    calls = []

    def counting(h, branch):
        calls.append(h)
        return reach_from_variation(h, branch)

    monkeypatch.setattr(machine, "reach_from_variation", counting)
    for target, solutions, lengths in (("0", 7, 7), ("0000", 18, 5), ("00000000", 20, 4)):
        for scheme, most in (("lengthweighted", lengths), ("uniform", 1)):
            calls.clear()
            assert run_cli("report", target, "--max-len", "16", "--scheme", scheme,
                           "--format", "records") == 0
            assert len(capsys.readouterr().out.splitlines()) == solutions
            assert len(calls) == most <= 8, (target, scheme)


def test_report_principal_branch(capsys):
    assert run_cli("report", "0", "--max-len", "6", "--branch", "principal",
                   "--format", "records") == 0
    lines = capsys.readouterr().out.splitlines()
    # p=0.8 lies above 1/e, so on the principal branch its own weight is the
    # root; the 0.2-weight record maps to the conjugate root 0.5666.
    assert lines[0] == (
        "program=0011 length=4 p=0.8 variation=0.25754247591 "
        "reachability=0.8 energy=7.39399545893e-22"
    )
    assert "reachability=0.566597304827" in lines[1]


# ---------------------------------------------------------------------- search


def test_search_table_summary(capsys):
    assert run_cli("search", "0000") == 0
    out = capsys.readouterr().out
    for needle in (
        "policy: sizedescending",
        "programs_run: 13",
        "best_found: 00001011",
        "best_length: 8",
        "bits_reduced: 2",
        "energy_charged: 5.74196192904e-21",
        "budget_exhausted: false",
    ):
        assert needle in out


def test_search_records_trace(capsys):
    assert run_cli("search", "0000", "--format", "records") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert lines[0] == "program=0000000011 length=10 outcome=hit"
    assert lines[3] == "program=00001011 length=8 outcome=hit"


def test_search_policy_and_budget_flags(capsys):
    assert run_cli("search", "01010101", "--policy", "reachabilitygreedy") == 0
    out = capsys.readouterr().out
    assert "policy: reachabilitygreedy" in out
    assert "best_found: 0001101011" in out


def test_search_policy_spelling_variants(capsys):
    # The flag goes through the same coercion as the library call.
    for spelling in ("size-descending", "SIZE_DESCENDING", "sizedescending"):
        assert run_cli("search", "0", "--policy", spelling) == 0
        assert "policy: sizedescending" in capsys.readouterr().out


def test_search_energy_budget(capsys):
    assert run_cli("search", "0000", "--budget-energy", "1e-22") == 0
    out = capsys.readouterr().out
    assert "budget_exhausted: true" in out
    assert "best_found: 0000000011" in out


def test_search_bad_policy_is_usage_error(capsys):
    assert run_cli("search", "0", "--policy", "annealing") == 3


def test_search_start_length(capsys):
    assert run_cli("search", "0", "--start-length", "6", "--format", "records") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert lines[6] == "program=100011 length=6 outcome=hit"


def test_search_start_length_far_above_the_budget():
    """A class of 10^8 opcodes runs past the step cap, so search exits 2
    before it counts a program; a fresh interpreter with a timeout, so a
    regression fails instead of hanging."""
    env = dict(os.environ, PYTHONPATH=str(Path(reachcalc.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-m", "reachcalc.cli", "search", "0", "--start-length", "200000000"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == (
        "ResourceExceeded: step cap 10000 breached by every program of 200000000 bits\n"
    )


@pytest.mark.parametrize("policy", ["exhaustive-by-size", "size-descending"])
def test_search_start_length_at_the_step_cap(capsys, policy):
    # 10,000 opcodes is the longest program the machine runs; 10,001 is refused.
    argv = ("search", "0", "--policy", policy, "--budget-programs", "1")
    assert run_cli(*argv, "--start-length", "20000", "--format", "records") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"program={'00' * 9999}11 length=20000 outcome=miss"
    assert run_cli(*argv, "--start-length", "20002") == 2
    assert capsys.readouterr() == (
        "", "ResourceExceeded: step cap 10000 breached by every program of 20002 bits\n")


# ------------------------------------------------------------------------ loss


def test_loss_pair(capsys):
    assert run_cli("loss", "1", "0") == 0
    out = capsys.readouterr().out
    assert "divergence: 0.56714329041" in out


def test_loss_prints_f_to_12_correct_digits(capsys):
    """f_z_hat and f_z print as mpmath's value rounded to 12 digits, for both
    arguments log-uniform on [1e-3, 1e308].  With exp(-W) in place of W/z,
    6 of these 2,000 values print a wrong 12th digit."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(23)
    twelve = decimal.Context(prec=12)
    with mpmath.workdps(50):
        for _ in range(1000):
            z_hat, z = (10.0 ** rng.uniform(-3, 308) for _ in range(2))
            assert run_cli("loss", repr(z_hat), repr(z), "--format", "records") == 0
            fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
            for key, arg in (("f_z_hat", z_hat), ("f_z", z)):
                exact = mpmath.exp(-mpmath.lambertw(arg).real)
                want = twelve.plus(decimal.Decimal(mpmath.nstr(exact, 30)))
                assert decimal.Decimal(fields[key]) == want, (key, arg)


def test_loss_convexity_grid(capsys):
    assert run_cli("loss", "--convexity-grid", "--format", "records") == 0
    line = capsys.readouterr().out.strip()
    # The second difference at these doubles is 1.6748799591241599e-07 (mpmath);
    # a second difference of values of f near 1 holds about 9 digits.
    assert line.startswith("convex=true min_second_difference=1.67487995945e-07")
    assert "points=1035" in line


def test_loss_domain_error(capsys):
    assert run_cli("loss", "--", "-0.5", "0") == 1


def test_loss_needs_two_arguments(capsys):
    assert run_cli("loss", "1") == 3


@pytest.mark.parametrize(
    "argv", [("lambertw", "inf", "--branch", "principal"), ("loss", "inf", "0")]
)
def test_positive_infinity_is_a_domain_error(argv, capsys):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("DomainError:")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (("reach", "--variation", "0.25", "--format", "records"), "branch", "lower"),
        (("loss", "--convexity-grid", "--format", "records"), "convex", "true"),
    ],
)
def test_parse_records_keeps_words_as_text(argv, key, value, capsys):
    assert run_cli(*argv) == 0
    (row,) = parse_records(capsys.readouterr().out)
    assert row[key] == value


@pytest.mark.parametrize(
    "argv, bounds",
    [
        (("lambertw", "--curve", "0", "inf", "2", "--branch", "principal"), "lo = 0.0, hi = inf"),
        (("reach", "--curve", "0.1", "inf", "3"), "lo = 0.1, hi = inf"),
        (("reach", "--curve", "nan", "0.5", "3"), "lo = nan, hi = 0.5"),
    ],
)
def test_curve_bound_that_is_not_finite_is_named(argv, bounds, capsys):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("DomainError:")
    assert bounds in captured.err
    assert captured.out == ""


# -------------------------------------------------------------------- plumbing


@pytest.mark.parametrize(
    "argv",
    [
        ("lambertw", "abc"),
        ("loss", "x", "1"),
        ("lambertw", "--curve", "a", "1", "3"),
        ("reach", "--curve", "0.1", "0.2", "x"),
        ("lambertw", "--curve", "0", "1", "2.5"),
    ],
)
def test_non_numeric_argument_is_usage_error(argv, capsys):
    assert run_cli(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("lambertw", "0.5", "--curve", "0", "1", "3", "--branch", "principal"),
        ("lambertw", "0.5", "--curve", "0", "1", "100001", "--branch", "principal"),
        ("reach", "--variation", "0.25", "--curve", "0.1", "0.2", "3"),
        ("reach", "--energy", "1e-21", "--curve", "0.1", "0.2", "3", "--format", "csv"),
        ("loss", "0.3", "0.7", "--convexity-grid", "--format", "records"),
        ("loss", "0.3", "--convexity-grid"),
    ],
)
def test_a_point_argument_ignored_by_the_command_is_a_usage_error(argv, capsys):
    # A curve or the convexity grid would drop the point argument; like a
    # target given both inline and by --input, that is refused before any
    # work (an over-long curve too).
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.endswith(", not both\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("reach", "--curve", "0.1", "0.5", "2", "--temp", "77"),
        ("reach", "--curve", "0.1", "0.5", "2", "--temp", "300", "--format", "csv"),
        ("search", "0101", "--policy", "reachability-greedy", "--start-length", "4"),
        ("search", "0101", "--policy", "exhaustive-by-size", "--max-len", "2"),
        ("search", "0101", "--policy", "size-descending", "--max-len", "24"),
        ("search", "0101", "--max-len", "16", "--format", "records"),
        ("search", "0101", "--policy", "exhaustive-by-size", "--budget-energy", "1e-30"),
        ("search", "0101", "--policy", "reachability-greedy", "--budget-energy", "1e-30"),
        ("search", "0101", "--policy", "exhaustive-by-size", "--budget-energy", "inf"),
        ("search", "0101", "--policy", "reachability-greedy", "--budget-energy", "inf",
         "--format", "csv"),
        ("search", "0101", "--policy", "exhaustive-by-size", "--temp", "77"),
        ("search", "0101", "--policy", "reachability-greedy", "--temp", "300",
         "--format", "records"),
    ],
)
def test_an_option_ignored_by_the_command_is_a_usage_error(argv, capsys):
    # The curve has no energy column, greedy search starts at the smallest
    # class, the other policies take no length cap and only size-descending
    # charges energy, so only it takes an energy budget or a temperature; an
    # option given with its default value is refused the same way.
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        (("reach", "--variation", "0.25"), ("--temp", "300")),
        (("report", "0", "--max-len", "6"), ("--temp", "300")),
        (("search", "0000", "--policy", "size-descending"), ("--temp", "300")),
        (("solve", "01"), ("--max-len", "24")),
        (("report", "0"), ("--max-len", "24")),
        (("search", "0101", "--policy", "reachability-greedy"), ("--max-len", "24")),
        (("search", "0000", "--policy", "size-descending"), ("--budget-energy", "inf")),
    ],
)
def test_an_omitted_option_takes_its_documented_default(argv, option, capsys):
    assert run_cli(*argv) == 0
    omitted = capsys.readouterr()
    assert run_cli(*argv, *option) == 0
    assert capsys.readouterr() == omitted


def test_determinism_byte_for_byte(capsys):
    run_cli("report", "0", "--max-len", "8", "--format", "csv")
    first = capsys.readouterr().out
    run_cli("report", "0", "--max-len", "8", "--format", "csv")
    assert capsys.readouterr().out == first


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(monkeypatch, fresh_parser_cache, capsys):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for argv in (("lambertw", "1"), ("solve", "0", "--max-len", "6"), ("lambertw", "abc")):
        run_cli(*argv)
    assert len(built) == 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


# One argv per subcommand, plus usage, domain and resource errors and --version.
SHARED_PARSER_ARGVS = [
    ("lambertw", "1", "--branch", "principal", "--format", "records"),
    ("lambertw", "abc"),
    ("reach", "--variation", "0.25", "--format", "csv"),
    ("reach", "--curve", "0.1", "0.5", "3", "--branch", "principal"),
    ("solve", "0", "--max-len", "8", "--scheme", "uniform"),
    ("solve", "0", "--max-len", "26"),
    ("report", "0", "--max-len", "8", "--format", "records"),
    ("search", "01101", "--policy", "exhaustive-by-size", "--format", "csv"),
    ("search", "0", "--policy", "nonsense"),
    ("loss", "1", "2"),
    ("loss", "--", "-0.5", "0"),
    ("--version",),
]


def _outcome(argv, capsys):
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_shared_parser_gives_what_fresh_parsers_give(fresh_parser_cache, capsys):
    # Every argv runs both before and after every other one on the shared parser.
    sequence = SHARED_PARSER_ARGVS + SHARED_PARSER_ARGVS[::-1]
    shared = [_outcome(argv, capsys) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert shared == fresh
    assert {code for code, _, _ in shared} == {0, 1, 2, 3, ("SystemExit", 0)}


COMMANDS = ("lambertw", "reach", "solve", "report", "search", "loss")

# Argvs where a parent parser and its subparsers could part ways: help,
# abbreviations, --opt=value, "--" separators, negative numbers, repeated
# options, bad choices and types, missing values, extra positionals, and
# argvs that do not start with a command.
PARSER_ARGVS = [
    *((command, "-h") for command in COMMANDS),
    ("solve", "--help"),
    ("solve", "-h", "0"),
    ("solve", "0", "--max-l", "6"),
    ("solve", "0", "--form", "rec", "--max-len", "6"),
    ("search", "0101", "--pol", "exhaustive-by-size", "--budget-p", "10", "--format", "csv"),
    ("reach", "--var", "0.25"),
    ("solve", "0", "--format=csv", "--max-len=6"),
    ("reach", "--variation=0.25", "--format=records"),
    ("solve", "--", "0", "--max-len", "6"),
    ("solve", "0", "--", "--max-len", "6"),
    ("solve", "--"),
    ("lambertw", "--", "--", "-0.1"),
    ("lambertw", "1", "--"),
    ("loss", "--", "-0.5", "0"),
    ("loss", "-0.5", "0"),
    ("lambertw", "-0.1", "--branch", "principal"),
    ("lambertw", "-inf"),
    ("reach", "--energy", "-1e-21"),
    ("solve", "-0"),
    ("lambertw", "1", "--branch", "principal", "--branch", "lower"),
    ("solve", "0", "--max-len", "4", "--max-len", "6"),
    ("solve", "0", "--format", "xml"),
    ("solve", "0", "--scheme", "bogus"),
    ("solve", "0", "--max-len", "six"),
    ("reach", "--variation", "x"),
    ("solve", "0", "--max-len"),
    ("lambertw", "--curve", "0", "1"),
    ("solve", "0", "1"),
    ("loss", "1", "2", "3"),
    ("solve", "0", "--version"),
    ("solve", "0", "--bogus"),
    ("search", "0", "--policy", "nonsense"),
    (),
    ("--version",),
    ("--vers",),
    ("-h",),
    ("nonsense", "0"),
    ("sol", "0"),
    ("--format", "csv", "solve", "0"),
]


def test_a_command_parser_parses_as_the_top_level_parser_does(monkeypatch, capsys):
    # main hands a command-first argv straight to that command's parser.
    # With no commands to look up, it goes through the top-level parser,
    # which delegates to the same parser; any Python whose argparse splits
    # argv differently between the two fails here.
    direct = [_outcome(argv, capsys) for argv in PARSER_ARGVS]
    monkeypatch.setattr(cli._parser(), "_commands", {})
    delegated = [_outcome(argv, capsys) for argv in PARSER_ARGVS]
    assert direct == delegated
    assert {code for code, _, _ in direct} == {0, 1, 3, ("SystemExit", 0)}


def test_an_op_runs_one_argparse_pass(monkeypatch, capsys):
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    for argv in SHARED_PARSER_ARGVS:
        parsers.clear()
        _outcome(argv, capsys)
        if argv[0] in COMMANDS:
            assert parsers == [cli._parser()._commands[argv[0]]], argv
        else:
            assert parsers == [cli._parser()], argv


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["reachcalc", "solve", "0", "--max-len", "6", "--format", "csv"])
    assert cli.main() == 0
    assert capsys.readouterr() == ("program,length,p\n0011,4,0.8\n100011,6,0.2\n", "")


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
VERSION_LINE = "reachcalc 0.1.0"


def test_console_script_version(tmp_path):
    # Run [project.scripts] reachcalc as the generated wrapper does:
    # import the target, then sys.exit(main()) with --version in sys.argv.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["reachcalc"]
    module, func = target.split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    # The reachcalc these tests imported, not some other installed copy.
    env = dict(os.environ, PYTHONPATH=str(Path(reachcalc.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == VERSION_LINE + "\n"
    assert out.stderr == ""


@pytest.mark.skipif(
    shutil.which("reachcalc") is None, reason="no installed reachcalc on PATH"
)
def test_installed_console_script_version():
    out = subprocess.run(
        ["reachcalc", "--version"], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == VERSION_LINE + "\n"
    assert out.stderr == ""
