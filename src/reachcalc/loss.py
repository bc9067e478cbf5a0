"""The convex link f(z) = exp(-W0(z)) and its matching (Bregman) loss.

f is convex and strictly decreasing on [-1/e, inf), with slope
f'(z) = -f(z)^2 / (1 + W0(z)) and f'(0) = -1.  Since W0(z) e^W0(z) = z,
every value of f is formed as W0(z)/z (1 at z = 0), never as exp(-W0(z)):
the quotient keeps the relative accuracy of W0, which exp(-w) would
multiply by |w|.  f, f' and the loss take W0 straight from W's solver,
lambertw._solve; eval_w, which adds a residual and a record, serves the
lambertw and reach commands and the curves.  The matching loss between a
prediction z_hat and a target z is the Bregman divergence

    loss = f(z_hat) - f(z) - f'(z) (z_hat - z) >= 0,

zero exactly when z_hat = z.  That subtraction cancels when z_hat is close
to z.  So with w = W0(z), t = 1 + w and d = W0(z_hat) - w, the divergence
is formed for |d| <= 1 as

    loss = e^-w / t * [t (e^-d - 1 + d) + w (e^d - 1 - d) + d expm1(d)],

where only the middle term can be negative, for w in (-1, 0), and the last
term outweighs it.  d starts as the difference of the two values of 1 + W0,
which W's anchored iteration gives to full relative accuracy near the
branch point.  When d is at most half of both values of 1 + W0, the same
iteration, anchored at (z, w) instead of the branch point, refines it on

    (w + d) e^d - w = (z_hat - z) e^-w,

that is W0(z_hat) e^W0(z_hat) = z_hat over e^w: the difference alone is off
by about eps (1 + |w|), a large relative error in a small d.  When d is
larger the difference is accurate, while the equation loses accuracy as
1 + W0(z_hat) goes to 0.  For |d| > 1 the terms of the definition cancel
little, while e^d would carry the rounding of d, which grows with |w|, so
the definition is used, with its slope term as f(z) ((z_hat - z) f(z)) / t,
which stays normal where f(z)^2, like exp(-2w), underflows (from w = 372).
The divergence reuses the two printed values of f.

Convexity is certified numerically, since the divergence's nonnegativity
rests on it: by second differences over the consecutive points of one fixed
grid, [-1/e + 1e-3, 10] at step 1e-2 accumulated in doubles, with f
evaluated once at each point.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError
from .lambertw import BRANCH_POINT, BranchChoice, _anchored, _exp_tail, _solve
from .lambertw import eval_w  # unused; reachbench/layers.py wraps it here
from .lambertw import w_derivative  # unused; reachbench/layers.py wraps it here

__all__ = [
    "LossEvaluation",
    "ConvexityCertificate",
    "f_exp_negw",
    "f_prime",
    "matching_loss",
    "convexity_certificate",
]

# The certificate's one grid: the interior points of [lo, hi] at step, held to tol.
_LO, _HI, _STEP, _TOL = BRANCH_POINT + 1e-3, 10.0, 1e-2, 1e-8


class LossEvaluation(Record):
    """Matching loss of a (prediction, target) pair with the link values."""

    def __init__(self, z_hat: float, z: float, f_z_hat: float, f_z: float, divergence: float):
        self.__dict__.update(z_hat=z_hat, z=z, f_z_hat=f_z_hat, f_z=f_z, divergence=divergence)


class ConvexityCertificate(Record):
    """Result of the grid check: every second difference >= -tol."""

    def __init__(self, ok: bool, min_second_difference: float, points: int, lo: float, hi: float,
                 step: float):
        self.__dict__.update(ok=ok, min_second_difference=min_second_difference, points=points,
                             lo=lo, hi=hi, step=step)


def _exp_neg_w(z: float, w: float) -> float:
    """e^-w for w = W0(z), as w/z (1 at z = 0): it keeps the relative
    accuracy of w, which exp(-w) multiplies by |w|."""
    return w / z if z else 1.0


def f_exp_negw(z: float) -> float:
    """f(z) = exp(-W0(z)), defined for z >= -1/e; f(-1/e) = e, f(0) = 1.

    Formed as W0(z)/z, since W0(z) e^W0(z) = z.
    """
    return _exp_neg_w(z, _solve(z, BranchChoice.PRINCIPAL)[0])


def f_prime(z: float) -> float:
    """f'(z) = -exp(-2 W0(z)) / (1 + W0(z)), defined strictly above -1/e; f'(0) = -1.

    From W0'(z) = exp(-W0) / (1 + W0), with exp(-W0) formed as W0(z)/z, as in
    f.  1 + W0 comes from W's branch-point iteration near -1/e, without
    cancellation.
    """
    if math.isnan(z) or z <= BRANCH_POINT:
        raise DomainError(f"f' needs z strictly above -1/e, got {z!r}")
    w, one_plus_w, _ = _solve(z, BranchChoice.PRINCIPAL)
    f = _exp_neg_w(z, w)
    return -f * f / one_plus_w


def matching_loss(z_hat: float, z: float) -> LossEvaluation:
    """Bregman divergence of f between a prediction z_hat and a target z.

    Both arguments must lie strictly above -1/e (the slope at the branch
    point diverges).  The divergence comes from the cancellation-free form
    of the module docstring; it is nonnegative and vanishes iff z_hat == z.
    A divergence whose exact value exceeds the largest double is inf, and
    only such a one.
    """
    for name, v in (("z_hat", z_hat), ("z", z)):
        if math.isnan(v) or v <= BRANCH_POINT:
            raise DomainError(f"{name} must lie strictly above -1/e, got {v!r}")
    w_hat, one_plus_w_hat, _ = _solve(z_hat, BranchChoice.PRINCIPAL)
    w, one_plus_w, _ = _solve(z, BranchChoice.PRINCIPAL)
    f_hat, f_z = _exp_neg_w(z_hat, w_hat), _exp_neg_w(z, w)
    shift = (z_hat - z) * f_z
    d = one_plus_w_hat - one_plus_w
    if abs(d) > 1.0:
        return LossEvaluation(z_hat, z, f_hat, f_z, f_hat - f_z + f_z * shift / one_plus_w)
    if abs(d) <= min(one_plus_w, one_plus_w_hat) / 2:
        d, _ = _anchored(one_plus_w, shift, d)
    em1 = math.expm1(d)
    bracket = one_plus_w * _exp_tail(-d, math.expm1(-d)) + w * _exp_tail(d, em1) + d * em1
    return LossEvaluation(z_hat, z, f_hat, f_z, f_z / one_plus_w * bracket)


def convexity_certificate() -> ConvexityCertificate:
    """Certify convexity of f on [-1/e + 1e-3, 10] by second differences.

    The grid is lo, lo + step, ... with step 1e-2 accumulated in doubles.
    Each of its 1,035 interior points checks f(prev) - 2 f(x) + f(next) >=
    -1e-8 over the consecutive grid points prev, x and next.  f is evaluated
    once per grid point, 1,037 times in all, and each value serves every
    difference it enters.
    """
    worst = math.inf
    points = 0
    x = _LO + _STEP
    f_prev, f_x = f_exp_negw(_LO), f_exp_negw(x)
    while x + _STEP <= _HI + _STEP * 1e-9:
        f_next = f_exp_negw(x + _STEP)  # the next f(x): x += step forms the same double
        worst = min(worst, f_prev - 2.0 * f_x + f_next)
        points += 1
        x += _STEP
        f_prev, f_x = f_x, f_next
    return ConvexityCertificate(worst >= -_TOL, worst, points, _LO, _HI, _STEP)
