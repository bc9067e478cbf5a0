"""The convex link f(z) = exp(-W0(z)) and its matching (Bregman) loss.

f is convex and strictly decreasing on [-1/e, inf), with the cross-check
identity f(z) = W0(z)/z for z != 0 and slope f'(0) = -1.  The matching loss
between a prediction z_hat and a target z is the Bregman divergence

    loss = f(z_hat) - f(z) - f'(z) (z_hat - z) >= 0,

zero exactly when z_hat = z.  Convexity is certified numerically by second
central differences over a grid, since that is what the divergence's
nonnegativity rests on.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import DomainError
from .lambertw import BRANCH_POINT, BranchChoice, eval_w
from .lambertw import w_derivative  # unused; reachbench/layers.py wraps it here

__all__ = [
    "LossEvaluation",
    "ConvexityCertificate",
    "f_exp_negw",
    "f_prime",
    "matching_loss",
    "convexity_certificate",
    "f_inverse",
]


class LossEvaluation(Record):
    """Matching loss of a (prediction, target) pair with the link values."""

    def __init__(self, z_hat: float, z: float, f_z_hat: float, f_z: float, divergence: float):
        self.__dict__.update(z_hat=z_hat, z=z, f_z_hat=f_z_hat, f_z=f_z, divergence=divergence)


class ConvexityCertificate(Record):
    """Result of the grid check: every second central difference >= -tol."""

    def __init__(self, ok: bool, min_second_difference: float, points: int, lo: float, hi: float,
                 step: float):
        self.__dict__.update(ok=ok, min_second_difference=min_second_difference, points=points,
                             lo=lo, hi=hi, step=step)


def f_exp_negw(z: float) -> float:
    """f(z) = exp(-W0(z)), defined for z >= -1/e; f(-1/e) = e, f(0) = 1."""
    return math.exp(-eval_w(z, BranchChoice.PRINCIPAL).value)


def f_prime(z: float) -> float:
    """f'(z) = -exp(-2 W0(z)) / (1 + W0(z)), defined strictly above -1/e; f'(0) = -1.

    From W0'(z) = exp(-W0) / (1 + W0): no division by z, so no special case at 0.
    """
    if math.isnan(z) or z <= BRANCH_POINT:
        raise DomainError(f"f' needs z strictly above -1/e, got {z!r}")
    w = eval_w(z, BranchChoice.PRINCIPAL).value
    return -math.exp(-2.0 * w) / (1.0 + w)


def matching_loss(z_hat: float, z: float) -> LossEvaluation:
    """Bregman divergence of f between a prediction z_hat and a target z.

    Both arguments must lie strictly above -1/e (the slope at the branch
    point diverges).  The divergence is nonnegative up to float noise and
    vanishes iff z_hat == z.
    """
    for name, v in (("z_hat", z_hat), ("z", z)):
        if math.isnan(v) or v <= BRANCH_POINT:
            raise DomainError(f"{name} must lie strictly above -1/e, got {v!r}")
    f_hat = f_exp_negw(z_hat)
    f_z = f_exp_negw(z)
    divergence = f_hat - f_z - f_prime(z) * (z_hat - z)
    return LossEvaluation(z_hat, z, f_hat, f_z, divergence)


def convexity_certificate(
    lo: float = BRANCH_POINT + 1e-3,
    hi: float = 10.0,
    step: float = 1e-2,
    tol: float = 1e-8,
) -> ConvexityCertificate:
    """Certify convexity of f on [lo, hi] by second central differences.

    Checks f(x-step) - 2 f(x) + f(x+step) >= -tol at every interior grid
    point.  The defaults cover [-1/e + 1e-3, 10] at step 1e-2.
    """
    if not (BRANCH_POINT <= lo < hi) or step <= 0.0:
        raise DomainError(f"bad certificate grid: lo={lo!r} hi={hi!r} step={step!r}")
    worst = math.inf
    points = 0
    x = lo + step
    while x + step <= hi + step * 1e-9:
        d2 = f_exp_negw(x - step) - 2.0 * f_exp_negw(x) + f_exp_negw(x + step)
        worst = min(worst, d2)
        points += 1
        x += step
    return ConvexityCertificate(worst >= -tol, worst, points, lo, hi, step)


def f_inverse(y: float) -> float:
    """Invert f in closed form: the z in [-1/e, inf) with exp(-W0(z)) = y.

    f decreases from f(-1/e) = e toward 0, so any y in (0, e] has exactly
    one preimage, W0(z) = -ln y, hence z = W0 exp(W0) = -ln(y) / y.
    """
    if math.isnan(y) or not 0.0 < y <= math.e:
        raise DomainError(f"f maps [-1/e, inf) onto (0, e], got y = {y!r}")
    return -math.log(y) / y + 0.0  # fold -0.0 at y = 1
