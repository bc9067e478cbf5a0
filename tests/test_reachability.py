"""Tests for the reachability inversion P log2 P = -variation."""

import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachcalc.entropy import VARIATION_MAX, entropy_to_work, work_to_entropy
from reachcalc.errors import DegenerateSetWarning, DomainError
from reachcalc.lambertw import BRANCH_POINT, BranchChoice
from reachcalc.reachability import (
    reach_curve,
    reach_from_energy,
    reach_from_variation,
)

import oracles

PRINCIPAL = BranchChoice.PRINCIPAL
LOWER = BranchChoice.LOWER


# ----------------------------------------------------------------- exact roots


def test_transcendental_roots_by_hand():
    # -p log2 p checked by hand: 0.25*2=0.5, 0.5*1=0.5, 0.0625*4=0.25, 0.125*3=0.375
    assert reach_from_variation(0.5, LOWER) == pytest.approx(0.25, abs=1e-12)
    assert reach_from_variation(0.5, PRINCIPAL) == pytest.approx(0.5, abs=1e-12)
    assert reach_from_variation(0.25, LOWER) == pytest.approx(0.0625, abs=1e-12)
    assert reach_from_variation(0.375, LOWER) == pytest.approx(0.125, abs=1e-12)


def test_default_branch_is_lower():
    assert reach_from_variation(0.5) == pytest.approx(0.25, abs=1e-12)


def test_principal_root_of_quarter():
    got = reach_from_variation(0.25, PRINCIPAL)
    assert got == pytest.approx(0.8066937970038672, rel=1e-12)
    assert got == pytest.approx(oracles.plogp_root(0.25, lower=False), abs=1e-10)


def test_bound_maps_to_one_over_e():
    for branch in (LOWER, PRINCIPAL):
        assert reach_from_variation(VARIATION_MAX, branch) == pytest.approx(
            1.0 / math.e, abs=1e-15
        )


def test_branch_ranges():
    for v in (0.01, 0.1, 0.3, 0.5, VARIATION_MAX):
        lo = reach_from_variation(v, LOWER)
        hi = reach_from_variation(v, PRINCIPAL)
        assert 0.0 < lo <= 1.0 / math.e + 1e-15
        assert 1.0 / math.e - 1e-15 <= hi < 1.0
        assert lo <= hi


def test_clamp_just_above_bound():
    assert reach_from_variation(VARIATION_MAX + 5e-13, LOWER) == reach_from_variation(
        VARIATION_MAX, LOWER
    )


def test_rejects_above_bound():
    with pytest.raises(DomainError):
        reach_from_variation(VARIATION_MAX + 1e-11, LOWER)
    with pytest.raises(DomainError):
        reach_from_variation(0.6, LOWER)


def test_rejects_negative_and_nan():
    with pytest.raises(DomainError):
        reach_from_variation(-0.1, LOWER)
    with pytest.raises(DomainError):
        reach_from_variation(math.nan, LOWER)
    with pytest.raises(DomainError):
        reach_from_variation(0.5, "lower")


def test_zero_variation_warns_with_limit_value():
    with pytest.warns(DegenerateSetWarning):
        assert reach_from_variation(0.0, LOWER) == 0.0
    with pytest.warns(DegenerateSetWarning):
        assert reach_from_variation(0.0, PRINCIPAL) == 1.0


# -------------------------------------------------------------------- roundtrip


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-9, exclude_max=True))
@settings(max_examples=300)
def test_roundtrip_reconstructs_p(p):
    """p -> variation -> p again, choosing the branch by which side of 1/e."""
    # Right at p = 1/e the square-root fold amplifies one ulp of variation
    # into ~1e-8 of p, so that neighborhood is tested separately (pinned
    # bound tests), not here.
    assume(abs(p - 1.0 / math.e) > 1e-6)
    variation = -p * math.log2(p)
    branch = LOWER if p < 1.0 / math.e else PRINCIPAL
    assert reach_from_variation(variation, branch) == pytest.approx(p, abs=1e-9)


def test_roundtrip_against_bisection_oracle():
    for k in range(200):
        p = (k + 0.5) / 200.0
        variation = -p * math.log2(p)
        lower = p < 1.0 / math.e
        got = reach_from_variation(variation, LOWER if lower else PRINCIPAL)
        assert got == pytest.approx(oracles.plogp_root(variation, lower=lower), abs=1e-9)


# ---------------------------------------------------------------- energy form


def test_energy_form_is_the_variation_form_of_its_entropy():
    # Both divide by the one Landauer unit k T ln2, so this holds exactly,
    # even where the round trip h -> E -> h moves h by an ulp.
    for h in (0.1, 0.25, 0.5):
        for temperature in (1.0, 300.0, 1000.0):
            for branch in (LOWER, PRINCIPAL):
                energy = entropy_to_work(h, temperature)
                assert reach_from_energy(energy, temperature, branch) == reach_from_variation(
                    work_to_entropy(energy, temperature), branch
                )


def test_energy_and_variation_forms_within_4_ulps_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for h in (0.1, 0.25, 0.5):
            for branch, k in ((LOWER, -1), (PRINCIPAL, 0)):
                exact = mpmath.exp(mpmath.lambertw(-mpmath.mpf(h) * mpmath.log(2), k).real)
                budget = 4 * math.ulp(float(exact))
                assert abs(reach_from_variation(h, branch) - exact) <= budget, (h, branch)
                for temperature in (1.0, 300.0, 1000.0):
                    energy = entropy_to_work(h, temperature)
                    got = reach_from_energy(energy, temperature, branch)
                    assert abs(got - exact) <= budget, (h, temperature, branch)


@pytest.mark.parametrize("branch", [PRINCIPAL, LOWER], ids=lambda b: b.value)
def test_reach_from_variation_within_4_ulps_of_mpmath_over_its_window(branch):
    """P = x / W(x) with x = -h ln2, against mpmath's exp(W(x)) at the same
    double x, for h from 1e-300 to the bound and within 1e-16 of it.  500
    seeded h per branch."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(31)
    hs = [10.0 ** rng.uniform(-300, math.log10(VARIATION_MAX)) for _ in range(300)]
    hs += [VARIATION_MAX - 10.0 ** rng.uniform(-16, math.log10(0.4)) for _ in range(200)]
    k = 0 if branch is PRINCIPAL else -1
    with mpmath.workdps(50):
        for h in hs:
            x = -h * math.log(2.0)  # the double reach_from_variation passes to W
            assert x >= BRANCH_POINT, h
            exact = mpmath.exp(mpmath.lambertw(x, k).real)
            got = reach_from_variation(h, branch)
            assert float(abs(got - exact)) <= 4 * math.ulp(float(exact)), h


def test_lower_branch_returns_p_from_its_own_variation():
    """reach_from_variation(-p log2 p) is p again, to 4 ulps, for p well below
    1/e: the reachabilities that report prints.  3,000 log-uniform p."""
    rng = random.Random(3)
    for _ in range(3000):
        p = 10.0 ** rng.uniform(-7, -1)
        assert abs(reach_from_variation(-p * math.log2(p), LOWER) - p) <= 4 * math.ulp(p), p


def test_energy_window():
    with pytest.raises(DomainError):
        reach_from_energy(-1e-22, 300.0)
    with pytest.raises(DomainError):
        reach_from_energy(math.nan, 300.0)
    # just above kT/e at 300 K
    cap = entropy_to_work(VARIATION_MAX, 300.0)
    with pytest.raises(DomainError, match="kT/e"):
        reach_from_energy(cap * 1.01, 300.0)
    assert reach_from_energy(cap, 300.0) == pytest.approx(1.0 / math.e, abs=1e-12)


def test_energy_temperature_validation():
    for temperature in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            reach_from_energy(1e-22, temperature)


@pytest.mark.parametrize("temperature", [1e-301, 1e-320, 5e-324])
def test_energy_form_rejects_a_landauer_unit_that_underflows(temperature):
    """Below about 1.8e-301 K, k T ln2 rounds to 0, so no energy can be divided by it."""
    assert entropy_to_work(1.0, temperature) == 0.0
    for energy in (0.0, 1e-30, 1e-310):
        with pytest.raises(DomainError, match=re.escape(f"T = {temperature!r} K")):
            reach_from_energy(energy, temperature)


# ----------------------------------------------------------------------- curve


def test_reach_curve_monotone_and_endpoint():
    pts = reach_curve(1e-6, VARIATION_MAX, 100, LOWER)
    assert len(pts) == 100
    assert pts[-1][0] == VARIATION_MAX
    values = [p for _, p in pts]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0 / math.e, abs=1e-12)


def test_reach_curve_principal_decreasing():
    pts = reach_curve(1e-6, VARIATION_MAX, 50, PRINCIPAL)
    values = [p for _, p in pts]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_reach_curve_endpoint_exact_where_the_step_rounds():
    # lo + 6 * ((hi - lo) / 6) rounds to 0.5000000000000001 here.
    assert reach_curve(0.1, 0.5, 7, LOWER)[-1][0] == 0.5


def test_reach_curve_single_point_and_validation():
    assert reach_curve(0.25, 0.5, 1, LOWER) == [(0.25, reach_from_variation(0.25, LOWER))]
    with pytest.raises(DomainError):
        reach_curve(0.1, 0.2, 0, LOWER)


@pytest.mark.parametrize("lo, hi", [(0.1, math.inf), (math.nan, 0.5), (-1e308, 1e308)])
def test_reach_curve_rejects_a_bound_or_span_that_is_not_finite(lo, hi):
    with pytest.raises(DomainError, match=re.escape(f"lo = {lo!r}, hi = {hi!r}")):
        reach_curve(lo, hi, 3, LOWER)
