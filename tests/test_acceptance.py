"""Acceptance gate: ten numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is part of the package contract; loosening one
is an interface change, not a test fix.
"""

import math
import random
import warnings
from contextlib import contextmanager

import pytest

from reachcalc.entropy import BOLTZMANN_K, LN2, VARIATION_MAX, entropy_to_work
from reachcalc.errors import DegenerateSetWarning
from reachcalc.lambertw import BRANCH_POINT, BranchChoice, eval_w
from reachcalc.loss import convexity_certificate, matching_loss
from reachcalc.machine import (
    enumerate_solutions,
    iter_valid_programs,
    kolmogorov_upper,
    reachability_report,
)
from reachcalc.reachability import reach_from_energy, reach_from_variation
from reachcalc.search import SearchPolicy, demiurge_search
from reachcalc import cli

import oracles

PRINCIPAL = BranchChoice.PRINCIPAL
LOWER = BranchChoice.LOWER


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {label}")


def test_criterion_01_lambert_w_identity():
    with criterion(1, "W identity residual on 1e5-point grids per branch"):
        n = 100_000
        worst = 0.0
        # Principal branch: cubic spacing from the branch point out to 1e6.
        for i in range(n):
            t = (i + 0.5) / n
            x = BRANCH_POINT + t * t * t * (1e6 - BRANCH_POINT)
            ev = eval_w(x, PRINCIPAL)
            worst = max(worst, ev.residual / max(1.0, abs(x)))
        assert worst <= 1e-12, f"principal worst scaled residual {worst:.3e}"
        # Lower branch: linear across [-1/e, -1e-6].
        worst = 0.0
        lo, hi = BRANCH_POINT, -1e-6
        for i in range(n):
            x = lo + (i / (n - 1)) * (hi - lo)
            ev = eval_w(x, LOWER)
            worst = max(worst, ev.residual / max(1.0, abs(x)))
        assert worst <= 1e-12, f"lower worst scaled residual {worst:.3e}"
        # Pinned points.
        assert eval_w(0.0, PRINCIPAL).value == 0.0
        assert abs(eval_w(math.e, PRINCIPAL).value - 1.0) <= 1e-12
        assert abs(eval_w(BRANCH_POINT, LOWER).value - (-1.0)) <= 1e-9


def test_criterion_02_variation_bound_constant():
    with criterion(2, "1/(e ln2) = 0.5307 and maps to 1/e"):
        assert f"{VARIATION_MAX:.4f}" == "0.5307"
        assert abs(VARIATION_MAX - 0.530737845423043) < 1e-15
        assert abs(reach_from_variation(VARIATION_MAX, LOWER) - 1.0 / math.e) <= 1e-9


def test_criterion_03_exact_transcendental_roots():
    with criterion(3, "hand-checked roots of p log2 p = -variation"):
        assert abs(reach_from_variation(0.5, LOWER) - 0.25) <= 1e-9
        assert abs(reach_from_variation(0.5, PRINCIPAL) - 0.5) <= 1e-9
        assert abs(reach_from_variation(0.25, LOWER) - 0.0625) <= 1e-9
        assert abs(reach_from_variation(0.375, LOWER) - 0.125) <= 1e-9


def test_criterion_04_roundtrip_against_bisection_oracle():
    with criterion(4, "1e4-value roundtrip vs independent bisection"):
        worst_p = 0.0
        worst_oracle = 0.0
        n = 10_000
        for k in range(n):
            p = (k + 0.5) / n
            variation = -p * math.log2(p)
            lower = p < 1.0 / math.e
            got = reach_from_variation(variation, LOWER if lower else PRINCIPAL)
            worst_p = max(worst_p, abs(got - p))
            ref = oracles.plogp_root(variation, lower=lower, iterations=80)
            worst_oracle = max(worst_oracle, abs(got - ref))
        assert worst_p <= 1e-9, f"worst |reconstructed - p| = {worst_p:.3e}"
        assert worst_oracle <= 1e-9, f"worst |reconstructed - oracle| = {worst_oracle:.3e}"


def test_criterion_05_landauer_number_and_search_energy():
    with criterion(5, "kT ln2 at 300 K and exact search energy ledger"):
        w = entropy_to_work(1.0, 300.0)
        assert abs(w - 2.871e-21) <= 0.001 * 2.871e-21
        for rho in ("0000", "0", "010101"):
            trace = demiurge_search(rho, SearchPolicy.SIZE_DESCENDING)
            assert trace.energy_charged == BOLTZMANN_K * 300.0 * LN2 * trace.bits_reduced


def test_criterion_06_ln2_cancellation():
    with criterion(6, "energy form cancels ln2 within 1e-12 relative"):
        for h in (0.1, 0.25, 0.5):
            for temperature in (1.0, 300.0, 1000.0):
                for branch in (LOWER, PRINCIPAL):
                    direct = reach_from_variation(h, branch)
                    via_energy = reach_from_energy(
                        entropy_to_work(h, temperature), temperature, branch
                    )
                    assert abs(via_energy - direct) <= 1e-12 * abs(direct)


def test_criterion_07_prefix_freeness_and_oracle_equivalence():
    with criterion(7, "prefix-free to 16 bits; solution sets match all-strings oracle"):
        valid = set()
        for k in range(1, 9):
            valid.update(iter_valid_programs(k))
        assert len(valid) == sum(3 ** (k - 1) for k in range(1, 9))
        for prog in valid:
            for cut in range(2, len(prog), 2):
                assert prog[:cut] not in valid, f"{prog[:cut]} is a prefix of {prog}"

        table = oracles.oracle_solutions(14)
        targets = [
            format(v, f"0{n}b") for n in range(1, 7) for v in range(2**n)
        ] + [""]
        for rho in targets:
            got = [p.bits for p in enumerate_solutions(rho, 14).programs]
            assert got == table.get(rho, []), f"solution set mismatch for {rho!r}"

        assert kolmogorov_upper("01010101").bits == 10
        assert kolmogorov_upper("0").bits == 4
        assert kolmogorov_upper("").bits == 2


def test_criterion_08_normalization_is_a_measure():
    with criterion(8, "normalized reachability sums to 1, argmax preserved"):
        targets = [""] + [
            format(v, f"0{n}b") for n in range(1, 7) for v in range(2**n)
        ]
        for rho in targets:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateSetWarning)
                records = reachability_report(rho, 14)
            total = math.fsum(r.normalized for r in records)
            assert abs(total - 1.0) <= 1e-12, f"sum {total!r} for {rho!r}"
            by_reach = max(records, key=lambda r: r.reachability)
            by_normalized = max(records, key=lambda r: r.normalized)
            assert by_normalized is by_reach
            if not any(r.degenerate for r in records):
                total_p = math.fsum(r.reachability for r in records)
                assert [r.reachability / total_p for r in records] == [
                    r.normalized for r in records
                ]


def test_criterion_09_convexity_and_matching_loss():
    with criterion(9, "convexity certificate; Bregman nonnegativity; loss(1,0)"):
        cert = convexity_certificate()
        assert cert.ok
        assert cert.min_second_difference >= -1e-8

        rng = random.Random(20260818)
        lo = BRANCH_POINT + 1e-3
        worst = math.inf
        for _ in range(10_000):
            z_hat = lo + rng.random() * (10.0 - lo)
            z = lo + rng.random() * (10.0 - lo)
            worst = min(worst, matching_loss(z_hat, z).divergence)
        assert worst >= -1e-10, f"most negative divergence {worst:.3e}"

        omega = oracles.bisect_w(1.0)
        assert abs(matching_loss(1.0, 0.0).divergence - omega) <= 1e-9


def _emit_curve(capsys, argv):
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]


def test_criterion_10_emitted_curves(capsys):
    with criterion(10, "emitted curves: monotone branches meeting at the fold"):
        # Reachability against entropy variation, lower branch: strictly
        # increasing up to (1/(e ln2), 1/e).
        pts = _emit_curve(
            capsys,
            ["reach", "--curve", "1e-06", "0.530737845423043", "512", "--format", "csv"],
        )
        assert len(pts) == 512
        values = [p for _, p in pts]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert abs(pts[-1][0] - VARIATION_MAX) <= 1e-12
        assert abs(pts[-1][1] - 1.0 / math.e) <= 1e-9

        # Both W branches, sampled from the branch point: monotone and meeting
        # at (-1/e, -1).
        principal = _emit_curve(
            capsys,
            ["lambertw", "--curve", "-0.36787944117144233", "2", "257",
             "--branch", "principal", "--format", "csv"],
        )
        lower = _emit_curve(
            capsys,
            ["lambertw", "--curve", "-0.36787944117144233", "-0.000001", "257",
             "--branch", "lower", "--format", "csv"],
        )
        pw = [w for _, w in principal]
        lw = [w for _, w in lower]
        assert all(a < b for a, b in zip(pw, pw[1:]))
        assert all(a > b for a, b in zip(lw, lw[1:]))
        assert abs(principal[0][0] - BRANCH_POINT) <= 1e-6
        assert abs(lower[0][0] - BRANCH_POINT) <= 1e-6
        assert abs(principal[0][1] - (-1.0)) <= 1e-6
        assert abs(lower[0][1] - (-1.0)) <= 1e-6
        assert abs(principal[0][1] - lower[0][1]) <= 1e-6


def test_oracles_are_sane():
    """Hand-checked values for the oracles the criteria above lean on."""
    assert oracles.bisect_w(1.0) == pytest.approx(0.5671432904097837, abs=1e-11)
    assert oracles.oracle_run("0001101011") == "01010101"
    assert oracles.plogp_root(0.5, lower=True) == pytest.approx(0.25, abs=1e-11)