"""Tests for the real Lambert W branches."""

import math
import random
from fractions import Fraction
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcalc.errors import DomainError
from reachcalc.lambertw import (
    BRANCH_POINT,
    BranchChoice,
    _grid,
    eval_w,
    w_curve,
    w_derivative,
)

import oracles

PRINCIPAL = BranchChoice.PRINCIPAL
LOWER = BranchChoice.LOWER

E = math.e


def residual_ok(ev):
    return ev.residual <= 1e-12 * max(1.0, abs(ev.argument))


# ---------------------------------------------------------------- pinned values


def test_w_at_zero_is_exact():
    ev = eval_w(0.0, PRINCIPAL)
    assert ev.value == 0.0
    assert ev.residual == 0.0
    assert ev.iterations == 0


def test_w_at_e_is_one():
    assert eval_w(E, PRINCIPAL).value == pytest.approx(1.0, abs=1e-12)


def test_omega_constant():
    """W0(1) is the omega constant, the root of w*e^w = 1."""
    got = eval_w(1.0, PRINCIPAL).value
    assert got == pytest.approx(0.5671432904097837, abs=1e-12)
    assert got == pytest.approx(oracles.bisect_w(1.0), abs=1e-12)


def test_branch_point_both_branches():
    for branch in (PRINCIPAL, LOWER):
        assert eval_w(BRANCH_POINT, branch).value == -1.0


def test_the_doubles_next_to_the_branch_point():
    # BRANCH_POINT lies below the true -1/e, so the double above it is
    # in-domain with W off -1, and the double below it is out of the domain.
    x = BRANCH_POINT + math.ulp(BRANCH_POINT)
    assert eval_w(x, LOWER).value == -1.0000000153042543  # mpmath, 50 digits
    for branch in (PRINCIPAL, LOWER):
        with pytest.raises(DomainError, match="no real value"):
            eval_w(BRANCH_POINT - math.ulp(BRANCH_POINT), branch)


def test_subnormal_arguments_are_exact():
    for x in (5e-324, -5e-324, -1e-300):
        assert eval_w(x, PRINCIPAL).value == x


def test_lower_branch_sample_against_oracle():
    # The bisection oracle steers by the sign of the float residual.  Down
    # the flat tail of the lower branch (x -> 0-), f'(w) = e^w (1 + w)
    # shrinks, so a residual of 1e-12 pins w only to 1e-12 / |f'(w)|.
    # Compare against the oracle with that conditioning slack.
    for x in (-0.35, -0.2, -0.1, -0.05, -1e-3, -1e-8):
        got = eval_w(x, LOWER).value
        ref = oracles.bisect_w(x, lower=True)
        slack = 1e-12 / abs(math.exp(got) * (1.0 + got)) + 1e-11 * abs(ref)
        assert abs(got - ref) <= slack


def test_principal_branch_sample_against_oracle():
    for x in (-0.35, -0.1, 0.5, 1.0, 10.0, 1e6, 1e12):
        got = eval_w(x, PRINCIPAL).value
        assert got == pytest.approx(oracles.bisect_w(x), rel=1e-11)


def test_principal_branch_up_to_the_float_maximum_within_2_ulps():
    """From about 2.76e307 on, Halley's correction term overflows and Newton
    on w + ln w = ln x takes over.  W is well conditioned up here (relative
    condition number 1 / (1 + W) ~ 1/700), so the budget of 2 ulps leaves
    room only for the rounding of ln x and ln w; 3,000 random x above 2**1021
    measured at most 0.99 ulps."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for x in (2.757e307, 3.162e307, 5e307, 1.7e308, 1.79e308, sys.float_info.max):
            ev = eval_w(x, PRINCIPAL)
            exact = mpmath.lambertw(x).real
            assert abs(ev.value - exact) <= 2 * math.ulp(float(exact)), x
            assert residual_ok(ev), x
            assert 1 <= ev.iterations <= 64


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_w(-1.0, PRINCIPAL)
    with pytest.raises(DomainError):
        eval_w(BRANCH_POINT - 1e-9, LOWER)
    with pytest.raises(DomainError):
        eval_w(0.0, LOWER)  # lower branch stops before 0
    with pytest.raises(DomainError):
        eval_w(0.5, LOWER)
    with pytest.raises(DomainError):
        eval_w(float("nan"), PRINCIPAL)
    with pytest.raises(DomainError):
        eval_w(1.0, "principal")  # branch must be the enum


def test_positive_infinity_is_a_domain_error():
    # W(inf) is not a float; the Halley loop must not be reached with it.
    with pytest.raises(DomainError, match="finite"):
        eval_w(math.inf, PRINCIPAL)
    with pytest.raises(DomainError, match="lower branch"):
        eval_w(math.inf, LOWER)
    with pytest.raises(DomainError, match="no real value"):
        eval_w(-math.inf, PRINCIPAL)
    with pytest.raises(DomainError):
        w_derivative(math.inf, PRINCIPAL)


def test_iterations_capped_and_reported():
    ev = eval_w(123.456, PRINCIPAL)
    assert 1 <= ev.iterations <= 64


def test_the_iteration_about_the_branch_point_stops_on_its_rounding_noise():
    """Below x = -0.25 the last steps are rounding noise of about an ulp; the
    iteration stops on the first that fails to halve.  The two fixed x's
    cycled through all 64 steps when the step size alone stopped it."""
    rng = random.Random(24)
    xs = [-0.2701431302126024, -0.2663470141769425]
    xs += [rng.uniform(BRANCH_POINT, -0.25) for _ in range(5000)]
    for x in xs:
        for branch in (PRINCIPAL, LOWER):
            assert eval_w(x, branch).iterations <= 4, (x, branch)


# ------------------------------------------------------ ulps against mpmath

ULP_BUDGET = 4


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


def _above_branch_point(rng):
    # x + 1/e log-uniform in 1e-16..0.3; every such double lies above the true -1/e.
    return BRANCH_POINT + _log_uniform(rng, -16, math.log10(0.3))


REGIONS = {
    "tiny |x|, lower": lambda rng: (-_log_uniform(rng, -300, -1), LOWER),
    "tiny |x|, principal": lambda rng: (rng.choice((-1.0, 1.0)) * _log_uniform(rng, -300, -1),
                                        PRINCIPAL),
    "x + 1/e in 1e-16..0.3, lower": lambda rng: (_above_branch_point(rng), LOWER),
    "x + 1/e in 1e-16..0.3, principal": lambda rng: (_above_branch_point(rng), PRINCIPAL),
    "x in (-1/e, 0), lower": lambda rng: (rng.uniform(BRANCH_POINT, 0.0), LOWER),
    "x in (-1/e, 0), principal": lambda rng: (rng.uniform(BRANCH_POINT, 0.0), PRINCIPAL),
    "x up to the float maximum": lambda rng: (_log_uniform(rng, -300, 308.25), PRINCIPAL),
}


@pytest.mark.parametrize("seed, region", enumerate(REGIONS, start=1))
def test_w_within_4_ulps_of_mpmath(seed, region):
    """Every region's iteration stops on its step, and lands within the budget
    of the 50-digit value; 300 fixed samples per region."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(seed)
    worst = (0.0, None)
    with mpmath.workdps(50):
        for _ in range(300):
            x, branch = REGIONS[region](rng)
            if x == BRANCH_POINT or x == 0.0:  # exact, and not in the region
                continue
            exact = mpmath.lambertw(x, -1 if branch is LOWER else 0).real
            ulps = float(abs(eval_w(x, branch).value - exact)) / math.ulp(float(exact))
            worst = max(worst, (ulps, x), key=lambda pair: pair[0])
    assert worst[0] <= ULP_BUDGET, worst


# ------------------------------------------------------------------ invariants


@given(st.floats(min_value=-0.367, max_value=1e8, allow_nan=False))
def test_principal_identity_residual(x):
    ev = eval_w(x, PRINCIPAL)
    assert residual_ok(ev)
    assert ev.value >= -1.0
    assert abs(ev.value * math.exp(ev.value) - x) == ev.residual


@given(st.floats(min_value=-0.367, max_value=-1e-12, allow_nan=False))
def test_lower_identity_residual(x):
    ev = eval_w(x, LOWER)
    assert residual_ok(ev)
    assert ev.value <= -1.0


@given(st.floats(min_value=-0.3678, max_value=-1e-6))
def test_branch_ordering(x):
    """On the shared open interval the lower branch sits below the principal."""
    lo = eval_w(x, LOWER).value
    hi = eval_w(x, PRINCIPAL).value
    assert lo <= -1.0 <= hi < 0.0


def test_principal_monotone_increasing():
    xs = [BRANCH_POINT + 1e-4 + i * 0.05 for i in range(200)]
    ws = [eval_w(x, PRINCIPAL).value for x in xs]
    assert all(a < b for a, b in zip(ws, ws[1:]))


def test_lower_monotone_decreasing():
    xs = [-0.3678 + i * (0.3677 / 200) for i in range(200)]
    ws = [eval_w(x, LOWER).value for x in xs]
    assert all(a > b for a, b in zip(ws, ws[1:]))


# ------------------------------------------------------------------- derivative


def test_derivative_pinned():
    assert w_derivative(0.0, PRINCIPAL) == 1.0
    assert w_derivative(E, PRINCIPAL) == pytest.approx(1.0 / (2.0 * E), rel=1e-12)


def test_derivative_matches_finite_difference():
    h = 1e-6
    for x, branch in ((0.5, PRINCIPAL), (3.0, PRINCIPAL), (-0.2, LOWER), (-0.05, LOWER)):
        fd = (eval_w(x + h, branch).value - eval_w(x - h, branch).value) / (2 * h)
        assert w_derivative(x, branch) == pytest.approx(fd, rel=1e-6)


def test_derivative_near_the_branch_point_against_mpmath():
    """1 + W comes from the branch-point iteration, so W' = W / (x (1 + W))
    keeps its relative accuracy as x approaches -1/e."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    xs = [BRANCH_POINT + k * math.ulp(BRANCH_POINT) for k in range(1, 9)]
    xs += [_above_branch_point(rng) for _ in range(100)]
    with mpmath.workdps(50):
        for x in xs:
            for branch, k in ((PRINCIPAL, 0), (LOWER, -1)):
                w = mpmath.lambertw(x, k).real
                exact = w / (x * (1 + w))
                got = w_derivative(x, branch)
                assert abs(got - exact) <= 4 * sys.float_info.epsilon * abs(exact), (x, branch)


def test_derivative_domain():
    with pytest.raises(DomainError):
        w_derivative(BRANCH_POINT, LOWER)
    with pytest.raises(DomainError):
        w_derivative(-1.0, PRINCIPAL)
    with pytest.raises(DomainError):
        w_derivative(float("nan"), PRINCIPAL)


# ------------------------------------------------------------------------ curve


def test_curve_endpoints_exact():
    pts = w_curve(-0.3, 1.0, 7, PRINCIPAL)
    assert len(pts) == 7
    assert pts[0][0] == -0.3
    assert pts[-1][0] == 1.0


def test_curve_endpoint_exact_where_the_step_rounds():
    # lo + 8 * ((hi - lo) / 8) rounds to -0.010000000000000009 here.
    assert w_curve(-0.3, -0.01, 9, LOWER)[-1][0] == -0.01


@pytest.mark.parametrize("lo, hi, n", [
    (0.0, 1e306, 200), (0.0, sys.float_info.max, 7), (-1e307, 1.6e308, 50),
    (-8e307, 8e307, 101), (1e306, 0.0, 200),
])
def test_grid_points_whose_product_overflows_are_finite_and_exact(lo, hi, n):
    """Where i (hi - lo) overflows, a point is within 2 ulps of the exact
    lo + i (hi - lo) / (n - 1); every other point is the plain formula's double."""
    xs = _grid(lo, hi, n)
    exact_step = (Fraction(hi) - Fraction(lo)) / (n - 1)
    overflowed = 0
    for i, x in enumerate(xs[:-1]):
        plain = lo + i * (hi - lo) / (n - 1)
        if math.isfinite(plain):
            assert x == plain, i
        else:
            overflowed += 1
            assert abs(Fraction(x) - (Fraction(lo) + i * exact_step)) <= 2 * Fraction(math.ulp(x))
    assert overflowed
    assert xs[0] == lo and xs[-1] == hi
    assert xs == sorted(xs, reverse=hi < lo)


def test_curve_single_point():
    assert w_curve(1.0, 2.0, 1, PRINCIPAL) == [(1.0, eval_w(1.0, PRINCIPAL).value)]


def test_curve_rejects_empty():
    with pytest.raises(DomainError):
        w_curve(0.0, 1.0, 0, PRINCIPAL)


@pytest.mark.parametrize(
    "lo, hi",
    [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308)],
)
def test_curve_rejects_a_bound_or_span_that_is_not_finite(lo, hi):
    # The last pair is finite, but hi - lo overflows to inf.
    with pytest.raises(DomainError, match=re.escape(f"lo = {lo!r}, hi = {hi!r}")):
        w_curve(lo, hi, 3, PRINCIPAL)
