"""Tests for the convex link f(z) = exp(-W0(z)) and its matching loss."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachcalc import loss
from reachcalc.errors import DomainError
from reachcalc.lambertw import BRANCH_POINT, BranchChoice, eval_w
from reachcalc.loss import (
    convexity_certificate,
    f_exp_negw,
    f_prime,
    matching_loss,
)

import oracles

# f is only certified above the branch point; stay clear of the fold.
domain_floats = st.floats(min_value=BRANCH_POINT + 1e-3, max_value=10.0)


def test_f_pinned_values():
    assert f_exp_negw(0.0) == 1.0
    assert f_exp_negw(BRANCH_POINT) == pytest.approx(math.e, rel=1e-12)
    # f(1) = exp(-omega) = omega, since omega * e^omega = 1
    assert f_exp_negw(1.0) == pytest.approx(0.5671432904097838, rel=1e-12)


def test_f_at_infinity_is_a_domain_error():
    with pytest.raises(DomainError):
        f_exp_negw(math.inf)


def test_f_equals_w_over_z():
    """f(z) is W(z)/z to the bit, from W e^W = z."""
    for z in (-0.3, -0.05, 0.25, 1.0, 4.0, 9.5):
        w = eval_w(z, BranchChoice.PRINCIPAL).value
        assert f_exp_negw(z) == w / z


def test_f_strictly_decreasing():
    zs = [BRANCH_POINT + 1e-3 + 0.1 * k for k in range(100)]
    fs = [f_exp_negw(z) for z in zs]
    assert all(a > b for a, b in zip(fs, fs[1:]))


def test_f_prime_pinned():
    assert f_prime(0.0) == -1.0
    # f' = -W'(z) e^{-W}; at z=1: W'(1) = omega/(1+omega), e^{-omega} = omega
    omega = eval_w(1.0, BranchChoice.PRINCIPAL).value
    assert f_prime(1.0) == pytest.approx(-omega * omega / (1.0 + omega), rel=1e-11)


def test_f_prime_matches_finite_difference():
    h = 1e-6
    for z in (-0.3, -0.1, 0.5, 2.0, 8.0):
        fd = (f_exp_negw(z + h) - f_exp_negw(z - h)) / (2 * h)
        assert f_prime(z) == pytest.approx(fd, rel=1e-5)


def test_f_prime_small_z_against_mpmath():
    """Near 0, f' = -f^2/(1 + W) with f = W(z)/z keeps full relative accuracy:
    the quotient is close to 1 and nothing cancels."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for k in range(-12, -2):
            for m in (1.0, 2.5, 7.0):
                for z in (m * 10.0**k, -m * 10.0**k):
                    w = mpmath.lambertw(z).real
                    exact = -mpmath.exp(-2 * w) / (1 + w)
                    assert abs(f_prime(z) - exact) <= 1e-11 * abs(exact), z


def test_f_prime_near_the_branch_point_against_mpmath():
    """1 + W0 comes from W's branch-point iteration, not from 1.0 + w, so
    f' = -exp(-2 W0)/(1 + W0) keeps its relative accuracy down to the
    double next to -1/e."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(5)
    zs = [BRANCH_POINT + k * math.ulp(BRANCH_POINT) for k in range(1, 9)]
    zs += [BRANCH_POINT + 10.0 ** rng.uniform(-16, -1) for _ in range(100)]
    with mpmath.workdps(50):
        for z in zs:
            w = mpmath.lambertw(z).real
            exact = -mpmath.exp(-2 * w) / (1 + w)
            assert abs(f_prime(z) - exact) <= 4 * sys.float_info.epsilon * abs(exact), z


def _ulps(got: float, exact) -> float:
    """|got - exact| in units of the last place of exact rounded to a double."""
    return float(abs(got - exact)) / math.ulp(float(exact))


def _link_samples() -> list[float]:
    """Seeded z: log-uniform on [1e-300, 1e308], log-uniform -z on
    [1e-300, 1/e), and z + 1/e log-uniform on [1e-16, 0.3]."""
    rng = random.Random(23)
    zs = [10.0 ** rng.uniform(-300, 308) for _ in range(400)]
    zs += [-(10.0 ** rng.uniform(-300, math.log10(-BRANCH_POINT))) for _ in range(300)]
    zs += [BRANCH_POINT + 10.0 ** rng.uniform(-16, math.log10(0.3)) for _ in range(300)]
    return [z for z in zs if z > BRANCH_POINT]


def test_f_within_4_ulps_of_mpmath():
    # exp(-W) would multiply W's rounding by |W|: about 500 ulps at worst here.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for z in _link_samples():
            exact = mpmath.exp(-mpmath.lambertw(z).real)
            assert _ulps(f_exp_negw(z), exact) <= 4, z


def test_f_prime_within_8_ulps_of_mpmath_where_it_is_normal():
    # exp(-2W) would multiply W's rounding by 2|W|: about 500 ulps at worst here.
    mpmath = pytest.importorskip("mpmath")
    checked = 0
    with mpmath.workdps(50):
        for z in _link_samples():
            w = mpmath.lambertw(z).real
            exact = -mpmath.exp(-2 * w) / (1 + w)
            if abs(exact) >= sys.float_info.min:
                assert _ulps(f_prime(z), exact) <= 8, z
                checked += 1
    assert checked > 700


def test_matching_loss_with_a_target_next_to_the_branch_point():
    # f'(z) is about -2.4e8 here; the reference divergence is
    # 1895107655.8288758 (mpmath, 50 digits).
    ev = matching_loss(15.557747348056452, -0.3678794411714416)
    assert ev.divergence == pytest.approx(1895107655.8288758, rel=1e-14)


def test_f_prime_domain():
    with pytest.raises(DomainError):
        f_prime(BRANCH_POINT)
    with pytest.raises(DomainError):
        f_prime(-1.0)
    with pytest.raises(DomainError):
        f_prime(math.nan)


# --------------------------------------------------------------- matching loss


# Relative error budgets against mpmath: the three pairs of the ROADMAP
# (measured at most 3.6 eps) and the seeded pairs (at most 8.3 eps over
# 8,000 pairs from four seeds).
PAIR_BUDGET = 8 * sys.float_info.epsilon
SEEDED_BUDGET = 32 * sys.float_info.epsilon


def _divergence_reference(mpmath, z_hat, z):
    """The divergence from its definition, at a precision that leaves at
    least 30 digits above the cancellation of its three terms."""
    dps = 40
    while True:
        with mpmath.workdps(dps):
            w = mpmath.lambertw(z).real
            terms = (mpmath.exp(-mpmath.lambertw(z_hat).real), -mpmath.exp(-w),
                     mpmath.exp(-2 * w) / (1 + w) * (mpmath.mpf(z_hat) - z))
            divergence = mpmath.fsum(terms)
            if abs(divergence) >= max(map(abs, terms)) * mpmath.mpf(10) ** (30 - dps):
                return divergence
        dps *= 2


@pytest.mark.parametrize("z_hat, z", [(1e-06, 1e-09), (1.00000001, 1.0), (-0.3, -0.30000001)])
def test_matching_loss_of_close_pairs_against_mpmath(z_hat, z):
    """Pairs whose divergence the definition's subtraction got 4% to 109% off."""
    mpmath = pytest.importorskip("mpmath")
    exact = _divergence_reference(mpmath, z_hat, z)
    assert abs(matching_loss(z_hat, z).divergence - exact) <= PAIR_BUDGET * abs(exact)


@pytest.mark.parametrize("z_hat, z", [(4.193032561996424e+90, 4.193032561996429e+90),
                                      (8.412816108645486e+117, 8.412816108645471e+117),
                                      (1.8214734967912241e+84, 1.8214734967912209e+84)])
def test_matching_loss_of_huge_close_pairs_against_mpmath(z_hat, z):
    """W0 near 200, so the start of d = W0(z_hat) - W0(z) is off by about
    40 times d itself.  A refinement stopped on 2 eps |W0(z_hat)| alone takes
    one step from there and keeps that start's rounding: 20 to 50 eps."""
    mpmath = pytest.importorskip("mpmath")
    exact = _divergence_reference(mpmath, z_hat, z)
    assert abs(matching_loss(z_hat, z).divergence - exact) <= PAIR_BUDGET * abs(exact)


@pytest.mark.parametrize("z_hat, z, divergence", [
    (1e308, -0.15, 1.7451024479140844e308),
    (1e308, -0.2, math.inf),  # exactly about 2.27e308
    (5e307, -0.3, math.inf),  # about 2.61e308
    (sys.float_info.max, -0.02, math.inf),  # about 1.91e308
])
def test_matching_loss_at_the_top_of_the_double_range(z_hat, z, divergence):
    """Past the seeded pairs' 1e200: a divergence near the largest double is
    within 8 eps of mpmath, and one whose exact value exceeds it is inf."""
    mpmath = pytest.importorskip("mpmath")
    exact = _divergence_reference(mpmath, z_hat, z)
    got = matching_loss(z_hat, z).divergence
    assert got == divergence
    if divergence == math.inf:
        assert exact > sys.float_info.max
    else:
        assert abs(got - exact) <= PAIR_BUDGET * abs(exact)


def _seeded_pairs(rng, count):
    """(z_hat, z) pairs from four regions: tiny |z|, next to the branch
    point, moderate and huge.  Four pairs in five put z_hat within a
    relative 1e-15 to 0.2 of z; the rest draw it from the regions too.  The
    fixed pairs come first: one where the tangent start of Newton's method
    in log form, which an earlier version of the loss used, left its
    domain, two next to the branch point, and two where exp(-2 W0(z))
    underflows."""
    pairs = [(-0.28, -0.36), (BRANCH_POINT + 2 * math.ulp(BRANCH_POINT), BRANCH_POINT + 1e-15),
             (-0.36787944117138244, 5.321533242412376e-08),
             (1.5962358939667264e+247, 1.1157866020945327e+169),
             (2.6524817542984473e+234, 2.068892008366571e+241)]

    def draw():
        return rng.choice((
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -1),
            BRANCH_POINT + 10.0 ** rng.uniform(-16, -1),
            rng.uniform(-0.36, 20.0),
            10.0 ** rng.uniform(2, 200),  # so that every divergence is a normal double
        ))

    while len(pairs) < count:
        z = draw()
        if rng.random() < 0.2:
            z_hat = draw()
        else:
            z_hat = z * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-15, -0.7))
        if z_hat > BRANCH_POINT and z_hat != z:
            pairs.append((z_hat, z))
    return pairs


def test_matching_loss_of_seeded_pairs_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for z_hat, z in _seeded_pairs(random.Random(1983), 300):
        exact = _divergence_reference(mpmath, z_hat, z)
        got = matching_loss(z_hat, z).divergence
        assert abs(got - exact) <= SEEDED_BUDGET * abs(exact), (z_hat, z)


def test_matching_loss_omega_case():
    """loss(1, 0) = f(1) - f(0) - f'(0)*(1-0) = omega - 1 + 1 = omega."""
    ev = matching_loss(1.0, 0.0)
    assert ev.divergence == pytest.approx(0.5671432904097838, rel=1e-12)
    assert ev.divergence == pytest.approx(oracles.bisect_w(1.0), abs=1e-9)
    assert ev.f_z == 1.0
    assert ev.f_z_hat == f_exp_negw(1.0)


def test_matching_loss_zero_at_equality():
    for z in (-0.2, 0.0, 1.0, 5.0):
        assert matching_loss(z, z).divergence == 0.0


def test_matching_loss_rejects_fold_and_below():
    with pytest.raises(DomainError):
        matching_loss(BRANCH_POINT, 0.0)  # strictly above: slope diverges there
    with pytest.raises(DomainError):
        matching_loss(0.0, BRANCH_POINT)
    with pytest.raises(DomainError):
        matching_loss(-1.0, 0.0)
    with pytest.raises(DomainError):
        matching_loss(math.nan, 0.0)


@given(domain_floats, domain_floats)
@settings(max_examples=300)
def test_matching_loss_nonnegative(z_hat, z):
    assert matching_loss(z_hat, z).divergence >= -1e-10


@given(domain_floats, domain_floats)
def test_matching_loss_asymmetric_but_positive_apart(z_hat, z):
    if abs(z_hat - z) < 1e-3:
        return
    assert matching_loss(z_hat, z).divergence > 0.0


# ------------------------------------------------------------------ certificate


def test_convexity_certificate_default_grid():
    cert = convexity_certificate()
    assert cert.ok
    assert cert.points == 1035
    # mpmath gives 1.67487995912e-07 at these doubles; a second difference of
    # values of f near 1 holds about 9 digits.
    assert cert.min_second_difference == 1.6748799594457076e-07
    assert cert.min_second_difference >= -1e-8
    assert cert.lo == pytest.approx(BRANCH_POINT + 1e-3, rel=1e-15)
    assert cert.hi == 10.0
    assert cert.step == 0.01


def test_convexity_certificate_takes_no_grid():
    # The grid is fixed: each former keyword, and any positional value, is refused.
    for keyword in ("lo", "hi", "step", "tol"):
        with pytest.raises(TypeError):
            convexity_certificate(**{keyword: 1.0})
    with pytest.raises(TypeError):
        convexity_certificate(1.0)


def test_convexity_certificate_evaluates_f_once_per_grid_point(monkeypatch):
    calls = []

    def counted(z):
        calls.append(z)
        return f_exp_negw(z)

    monkeypatch.setattr(loss, "f_exp_negw", counted)
    cert = convexity_certificate()
    assert (cert.ok, cert.min_second_difference, cert.points) == (True, 1.6748799594457076e-07,
                                                                  1035)
    # One call at each of the 1,037 grid points, the 1,035 interior ones and
    # both ends, in order and never twice at one abscissa.
    assert len(calls) == 1037
    assert len(set(calls)) == 1037
    assert calls == sorted(calls)
    assert calls[0] == cert.lo


def _fresh_certificate() -> tuple[loss.ConvexityCertificate, int]:
    """The certificate with f evaluated afresh at x - step, x and x + step at
    every interior point x, the grid accumulated as in loss.py, and the
    number of points where f(x - step) is not f at the previous grid point."""
    lo, hi, step = loss._LO, loss._HI, loss._STEP
    worst = math.inf
    points = split = 0
    prev, x = lo, lo + step
    while x + step <= hi + step * 1e-9:
        f_left = f_exp_negw(x - step)
        split += f_left != f_exp_negw(prev)
        worst = min(worst, f_left - 2.0 * f_exp_negw(x) + f_exp_negw(x + step))
        points += 1
        prev, x = x, x + step
    return loss.ConvexityCertificate(worst >= -1e-8, worst, points, lo, hi, step), split


def test_convexity_certificate_matches_fresh_central_differences():
    # The window reads f at the previous grid point where this reads it at
    # x - step.  At one interior point (index 86, x = 0.5031...) the two
    # abscissae differ by one ulp, and f gives the same double at both; a
    # change to f that split them at any point would show here, even where
    # the least difference does not move.
    want, split = _fresh_certificate()
    assert split == 0
    assert convexity_certificate() == want
