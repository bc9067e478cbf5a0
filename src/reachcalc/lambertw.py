"""Real branches of the Lambert W function.

W(x) is defined by W(x) * exp(W(x)) = x.  Two real branches exist:

* the principal branch W0, with W0(x) >= -1 on [-1/e, inf), and
* the lower branch W-1, with W-1(x) <= -1 on [-1/e, 0).

Both meet at the branch point x = -1/e where W = -1.  Values are found by
Halley's method on f(w) = w*exp(w) - x, started from a branch-point series
near -1/e and from logarithmic asymptotics elsewhere.  Above 2**1021, where
Halley's correction term overflows, the principal branch is found by
Newton's method on w + ln w = ln x instead.  Success means the
residual |w*exp(w) - x| is at most 1e-12 * max(1, |x|); immediately around
the branch point the square-root singularity caps what any float iteration
can resolve, so there the series value is returned directly (it is accurate
to ~1e-15 in w) and the residual requirement is relaxed to 1e-9 absolute.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import Record
from .errors import ConvergenceError, DomainError

__all__ = [
    "BRANCH_POINT",
    "BranchChoice",
    "WEvaluation",
    "eval_w",
    "solve_xlog",
    "w_derivative",
    "w_curve",
]

#: Left edge of both real branches: -1/e.
BRANCH_POINT = -1.0 / math.e

_RESIDUAL_RTOL = 1e-12
_RESIDUAL_NEAR_BRANCH = 1e-9
_MAX_ITER = 64
# |x + 1/e| below this: return the branch-point series directly (no iteration).
_SERIES_ONLY = 1e-5
# |x + 1/e| below this: use the series as the Halley starting point.
_SERIES_START = 0.07
# Values within a few ulps of -1/e snap to the branch point exactly.
_SNAP = 4 * math.ulp(BRANCH_POINT)
# x above this: Newton on w + ln w = ln x, since Halley's (w + 2) * f
# overflows from about x = 2.757e307.
_LOG_FORM = 2.0**1021


class BranchChoice(Enum):
    """Which real branch of W to evaluate."""

    PRINCIPAL = "principal"
    LOWER = "lower"


class WEvaluation(Record):
    """One converged evaluation of W.

    residual is |value * exp(value) - argument| at the returned value;
    iterations counts Halley steps (0 when a closed form or the
    branch-point series was used).
    """

    def __init__(self, argument: float, value: float, branch: BranchChoice, residual: float,
                 iterations: int):
        self.__dict__.update(argument=argument, value=value, branch=branch, residual=residual,
                             iterations=iterations)


def _series(p: float) -> float:
    # Branch-point expansion W = -1 + p - p^2/3 + 11 p^3/72 - ..., where
    # p = +/- sqrt(2 (e x + 1)); the sign picks the branch.
    return -1.0 + p * (
        1.0
        + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0 + p * (769.0 / 17280.0))))
    )


def _initial_guess(x: float, branch: BranchChoice) -> float:
    q = x - BRANCH_POINT  # = x + 1/e, >= 0 in-domain
    if q < _SERIES_START:
        p = math.sqrt(2.0 * math.e * q)
        return _series(p if branch is BranchChoice.PRINCIPAL else -p)
    if branch is BranchChoice.PRINCIPAL:
        if x <= math.e:
            return math.log1p(x)
        lx = math.log(x)
        return lx - math.log(lx)
    # Lower branch, x in (-1/e, 0): classic two-log asymptotic.
    l1 = math.log(-x)
    l2 = math.log(-l1)
    return l1 - l2 + l2 / l1


def eval_w(x: float, branch: BranchChoice = BranchChoice.PRINCIPAL) -> WEvaluation:
    """Evaluate the chosen real branch of W at x.

    Raises DomainError for x < -1/e and x = inf (both branches) and for
    x >= 0 on the lower branch; raises ConvergenceError if the residual
    tolerance cannot be met within the iteration cap (not expected for
    in-domain input).
    """
    if not isinstance(branch, BranchChoice):
        raise DomainError(f"branch must be a BranchChoice, got {branch!r}")
    if math.isnan(x):
        raise DomainError("W is undefined for NaN")
    if x < BRANCH_POINT - _SNAP:
        raise DomainError(f"W(x) has no real value for x = {x!r} < -1/e")
    if branch is BranchChoice.LOWER and x >= 0.0:
        raise DomainError(f"the lower branch is only defined on [-1/e, 0), got x = {x!r}")
    if x == math.inf:
        raise DomainError("W is evaluated only at finite x, got x = inf")

    if branch is BranchChoice.PRINCIPAL and x == 0.0:
        return WEvaluation(x, 0.0, branch, 0.0, 0)
    if abs(x - BRANCH_POINT) <= _SNAP:
        # Exactly the branch point (to float resolution): W = -1.
        return WEvaluation(x, -1.0, branch, abs(-1.0 / math.e - x), 0)

    near_branch = (x - BRANCH_POINT) < _SERIES_ONLY
    w = _initial_guess(x, branch)
    iterations = 0
    if x > _LOG_FORM:
        w, iterations = _log_newton(x, w)
    elif not near_branch:
        # Halley's method on f(w) = w e^w - x.
        tol = _RESIDUAL_RTOL * max(1.0, abs(x))
        for iterations in range(1, _MAX_ITER + 1):
            ew = math.exp(w)
            f = w * ew - x
            if abs(f) <= tol:
                break
            w1 = w + 1.0
            step = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
            if not math.isfinite(step):
                break
            w -= step
        # Keep the value on its branch halfline; float noise can cross -1.
        if branch is BranchChoice.PRINCIPAL:
            w = max(w, -1.0)
        else:
            w = min(w, -1.0)

    if x > _LOG_FORM:  # |w e^w - x| without forming w e^w, which may overflow
        residual = x * abs(w * math.exp(w - math.log(x)) - 1.0)
    else:
        residual = abs(w * math.exp(w) - x)
    ok = residual <= _RESIDUAL_RTOL * max(1.0, abs(x)) or (
        near_branch and residual <= _RESIDUAL_NEAR_BRANCH
    )
    if not ok:
        raise ConvergenceError(
            f"W residual {residual:.3e} above tolerance after {iterations} iterations "
            f"at x = {x!r} ({branch.value} branch)"
        )
    return WEvaluation(x, w, branch, residual, iterations)


def _log_newton(x: float, w: float) -> tuple[float, int]:
    """(W0(x), iterations) for large x by Newton's method on w + ln w = ln x,
    started from w."""
    lx = math.log(x)
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        step = (w + math.log(w) - lx) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 4.0 * math.ulp(w):
            break
    return w, iterations


def solve_xlog(a: float, b: float, branch: BranchChoice = BranchChoice.PRINCIPAL) -> float:
    """Solve x * log_a(x) = b for x.

    Rewriting with natural logs gives ln(x) * e^{ln x} = b * ln(a), so
    x = exp(W(b * ln a)).  The branch picks which of the (up to two) real
    solutions is returned; the lower branch needs b * ln(a) in [-1/e, 0).
    """
    if not (a > 1.0) or not math.isfinite(a):
        raise DomainError(f"log base must be finite and > 1, got {a!r}")
    if not math.isfinite(b):
        raise DomainError(f"right-hand side must be finite, got {b!r}")
    arg = b * math.log(a)
    return math.exp(eval_w(arg, branch).value)


def w_derivative(x: float, branch: BranchChoice = BranchChoice.PRINCIPAL) -> float:
    """dW/dx, defined strictly inside the branch domain (x != -1/e).

    Uses W'(x) = W / (x (1 + W)) for x != 0; the principal branch has the
    removable value W'(0) = 1.
    """
    if math.isnan(x):
        raise DomainError("W' is undefined for NaN")
    if x <= BRANCH_POINT + _SNAP:
        raise DomainError("W' diverges at the branch point -1/e and is undefined below it")
    if branch is BranchChoice.PRINCIPAL and x == 0.0:
        return 1.0
    w = eval_w(x, branch).value
    return w / (x * (1.0 + w))


def _grid(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points on [lo, hi], endpoints exact; [lo] when n == 1.

    With two or more points the step is formed from lo, hi and hi - lo, so
    all three must be finite.
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
    return xs


def w_curve(lo: float, hi: float, n: int, branch: BranchChoice) -> list[tuple[float, float]]:
    """Sample (x, W(x)) at n evenly spaced points on [lo, hi], endpoints exact."""
    return [(x, eval_w(x, branch).value) for x in _grid(lo, hi, n)]
