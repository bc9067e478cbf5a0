"""Real branches of the Lambert W function.

W(x) is defined by W(x) * exp(W(x)) = x.  Two real branches exist:

* the principal branch W0, with W0(x) >= -1 on [-1/e, inf), and
* the lower branch W-1, with W-1(x) <= -1 on [-1/e, 0).

Both meet at the branch point x = -1/e where W = -1.  The double
BRANCH_POINT lies just below the true -1/e; W there is -1, and every x below
it is out of the domain.  Each in-domain x takes one of three iterations:

* below x = -0.25 on either branch, the anchored iteration: Halley's
  method for d = W(x) - W(z) on (1 + W(z) + d) expm1(d) - (e^d - 1 - d) =
  (x - z) e^-W(z), that is W(x) e^W(x) - W(z) e^W(z) = x - z over e^W(z),
  with e^d - 1 - d from its series for |d| < 1/4.  Here it is anchored at the
  branch point (z, W(z)) = (-1/e, -1), so d = 1 + W and the right side
  e (x + 1/e) is formed in double-double, started from the branch-point
  series.  reachcalc.loss anchors it at a target (z, W0(z)) instead;
* the lower branch from -0.25 up, and the principal branch above 2**1021
  (where Halley's correction term overflows), Newton's method on
  w + ln|w| = ln|x|, started from the logarithmic asymptotics;
* the principal branch from -0.25 to 2**1021, Halley's method on
  w e^w - x, started from log1p(x) or ln x - ln ln x.

Every iteration stops once its step is at most 2 eps |w|, never on a
residual; the anchored one also needs the step below |d|, and stops on a
step that fails to halve the last.  eval_w returns W with its residual,
w_derivative W', and w_curve samples W on an even grid.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from ._record import Record
from .errors import DomainError

__all__ = [
    "BRANCH_POINT",
    "BranchChoice",
    "WEvaluation",
    "eval_w",
    "w_derivative",
    "w_curve",
]

#: Left edge of both real branches: -1/e, rounded.
BRANCH_POINT = -1.0 / math.e

# 1/e - (-BRANCH_POINT): the low half of 1/e, so x + 1/e is formed to double-double.
_E_LO = -1.2428753672788363e-17
_MAX_ITER = 64
# An iteration stops once |step| <= _STEP_RTOL * |w|.
_STEP_RTOL = 2.0 * sys.float_info.epsilon
# x below this: the iteration in t = 1 + W about the branch point.
_BRANCH_ZONE = -0.25
# x above this: Newton on w + ln w = ln x, since Halley's (w + 2) * f
# overflows from about x = 2.757e307.
_LOG_FORM = 2.0**1021


class BranchChoice(Enum):
    """Which real branch of W to evaluate."""

    PRINCIPAL = "principal"
    LOWER = "lower"


class WEvaluation(Record):
    """One evaluation of W.

    residual is |value * exp(value) - argument| at the returned value;
    iterations counts the steps taken (0 at x = 0 on the principal branch
    and at the branch point, where W is exact).
    """

    def __init__(self, argument: float, value: float, branch: BranchChoice, residual: float,
                 iterations: int):
        self.__dict__.update(argument=argument, value=value, branch=branch, residual=residual,
                             iterations=iterations)


def eval_w(x: float, branch: BranchChoice = BranchChoice.PRINCIPAL) -> WEvaluation:
    """Evaluate the chosen real branch of W at x.

    Raises DomainError for x < BRANCH_POINT and x = inf (both branches) and
    for x >= 0 on the lower branch.  The value comes from the iteration of
    x's region (see the module docstring), stopped on its step.
    """
    w, _, iterations = _solve(x, branch)
    if x > _LOG_FORM:  # |w e^w - x| without forming w e^w, which may overflow
        residual = x * abs(w * math.exp(w - math.log(x)) - 1.0)
    else:
        residual = abs(w * math.exp(w) - x)
    return WEvaluation(x, w, branch, residual, iterations)


def _solve(x: float, branch: BranchChoice) -> tuple[float, float, int]:
    """(W(x), 1 + W(x), iterations) on the chosen branch, after the domain
    checks.  Below x = -0.25 the anchored iteration, anchored at the branch
    point, gives 1 + W itself, so it keeps its relative accuracy as W
    approaches -1."""
    if not isinstance(branch, BranchChoice):
        raise DomainError(f"branch must be a BranchChoice, got {branch!r}")
    if math.isnan(x):
        raise DomainError("W is undefined for NaN")
    if x < BRANCH_POINT:
        raise DomainError(f"W(x) has no real value for x = {x!r} < -1/e")
    if branch is BranchChoice.LOWER and x >= 0.0:
        raise DomainError(f"the lower branch is only defined on [-1/e, 0), got x = {x!r}")
    if x == math.inf:
        raise DomainError("W is evaluated only at finite x, got x = inf")

    if x == BRANCH_POINT:
        return -1.0, 0.0, 0
    if branch is BranchChoice.PRINCIPAL and x == 0.0:
        return 0.0, 1.0, 0
    if x < _BRANCH_ZONE:
        # Anchored at the branch point, started from its series
        # W = -1 + p - p^2/3 + 11 p^3/72 with p = +/- sqrt(2 e (x + 1/e)).
        s = math.e * ((x - BRANCH_POINT) + _E_LO)
        p = math.sqrt(2.0 * s) if branch is BranchChoice.PRINCIPAL else -math.sqrt(2.0 * s)
        t, iterations = _anchored(0.0, s, p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0))))
        return t - 1.0, t, iterations
    if branch is BranchChoice.LOWER:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w, iterations = _log_newton(l1, l1 - l2 + l2 / l1)
    elif x <= math.e:
        w, iterations = _halley(x, math.log1p(x))
    else:
        lx = math.log(x)
        guess = lx - math.log(lx)
        w, iterations = _log_newton(lx, guess) if x > _LOG_FORM else _halley(x, guess)
    return w, 1.0 + w, iterations


def _anchored(t0: float, s: float, d: float) -> tuple[float, int]:
    """(d, iterations) solving h(d) = (t0 + d) expm1(d) - (e^d - 1 - d) = s
    by Halley's method from d.

    With t0 = 1 + W(z) and s = (x - z) e^-W(z) the root is d = W(x) - W(z),
    since h(d) = (W(z) + d) e^d - W(z).  With g = t0 + d, h' = g e^d and
    h'' = (g + 1) e^d; the step divides by g e^d - h (g + 1) / (2 g), which
    does not form the product of h' and e^d.  It stops once the step is at
    most 2 eps |t0 - 1 + d|, that is |W(x)|, as every W iteration does, and
    at most |d|.  The second bound is for a small d far from its start: h
    rounds at the scale of the d it is formed at, so the step down from a
    start many times d carries the start's rounding into d (up to 50 eps in
    the matching loss without it).
    """
    step = math.inf
    for iterations in range(1, _MAX_ITER + 1):
        em1 = math.expm1(d)
        g = t0 + d
        h = g * em1 - _exp_tail(d, em1) - s
        last, step = step, h / ((em1 + 1.0) * g - h * (g + 1.0) / (2.0 * g))
        d -= step
        # The rounding of h can keep every step above that stop: near W(x) = 0,
        # and at some x about the branch point, where the steps would swap two
        # doubles for all _MAX_ITER steps.  From these starts a step that
        # fails to halve the last is that noise.
        if abs(step) <= min(_STEP_RTOL * abs(t0 - 1.0 + d), abs(d)) or abs(step) > abs(last) / 2:
            break
    return d, iterations


def _exp_tail(t: float, em1: float) -> float:
    """e^t - 1 - t, given em1 = expm1(t); a series for |t| < 1/4, where
    expm1(t) - t would cancel."""
    if abs(t) >= 0.25:
        return em1 - t
    s = 1.0
    for k in range(14, 2, -1):  # t^2/2 (1 + t/3 (1 + t/4 (...)))
        s = 1.0 + t * s / k
    return 0.5 * t * t * s


def _log_newton(lx: float, w: float) -> tuple[float, int]:
    """(w, iterations) solving w + ln|w| = lx by Newton's method from w.

    With lx = ln|x| this is W-1(x) for x < 0 and W0(x) for large x > 0.
    """
    for iterations in range(1, _MAX_ITER + 1):
        step = (w + math.log(abs(w)) - lx) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= _STEP_RTOL * abs(w):
            break
    return w, iterations


def _halley(x: float, w: float) -> tuple[float, int]:
    """(w, iterations) for W0(x) by Halley's method on w e^w - x from w."""
    for iterations in range(1, _MAX_ITER + 1):
        ew = math.exp(w)
        f = w * ew - x
        w1 = w + 1.0
        step = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= step
        if abs(step) <= _STEP_RTOL * abs(w):
            break
    return w, iterations


def w_derivative(x: float, branch: BranchChoice = BranchChoice.PRINCIPAL) -> float:
    """dW/dx, defined strictly inside the branch domain (x != -1/e).

    Uses W'(x) = W / (x (1 + W)) for x != 0, with 1 + W formed without
    cancellation near the branch point; the principal branch has the
    removable value W'(0) = 1.
    """
    if math.isnan(x):
        raise DomainError("W' is undefined for NaN")
    if x <= BRANCH_POINT:
        raise DomainError("W' diverges at the branch point -1/e and is undefined below it")
    if branch is BranchChoice.PRINCIPAL and x == 0.0:
        return 1.0
    w, one_plus_w, _ = _solve(x, branch)
    return w / (x * one_plus_w)


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points on [lo, hi], endpoints exact; [lo] when n == 1.

    With two or more points the step is formed from lo, hi and hi - lo, so
    all three must be finite.  A point whose i (hi - lo) overflows is the
    exact lo + i (hi - lo) / (n - 1), rounded.
    """
    if n < 1:
        raise DomainError(f"need at least one sample point, got n = {n}")
    if n == 1:
        return [lo]
    if not math.isfinite(hi - lo):  # also NaN or inf when lo or hi is
        raise DomainError(
            f"curve bounds and their span must be finite, got lo = {lo!r}, hi = {hi!r}"
        )
    xs = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    xs[-1] = hi
    if not all(map(math.isfinite, xs)):  # i (hi - lo) overflowed: round those points exactly
        from fractions import Fraction

        step = (Fraction(hi) - Fraction(lo)) / (n - 1)
        xs = [x if math.isfinite(x) else float(Fraction(lo) + i * step) for i, x in enumerate(xs)]
    return xs


def w_curve(lo: float, hi: float, n: int, branch: BranchChoice) -> list[tuple[float, float]]:
    """Sample (x, W(x)) at n evenly spaced points on [lo, hi], endpoints exact."""
    return [(x, eval_w(x, branch).value) for x in _grid(lo, hi, n)]
