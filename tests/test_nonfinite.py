"""NaN and ±inf in every float argument of the public numeric API.

Each is outside every domain here, so each call must raise one of the
package's own errors, never a bare ValueError or OverflowError from deep
inside a computation.
"""

import math

import pytest

from reachcalc.entropy import (
    FiniteDistribution,
    algorithmic_entropy,
    entropy_to_work,
    entropy_variation,
    shannon_entropy,
    work_to_entropy,
)
from reachcalc.errors import ReachcalcError
from reachcalc.lambertw import BranchChoice, eval_w, w_curve, w_derivative
from reachcalc.loss import f_exp_negw, f_prime, matching_loss
from reachcalc.machine import reachability_report
from reachcalc.reachability import reach_curve, reach_from_energy, reach_from_variation
from reachcalc.search import Budget, demiurge_search

LOWER, PRINCIPAL = BranchChoice.LOWER, BranchChoice.PRINCIPAL

# name -> a call that puts v in one float argument, the others in domain.
CALLS = {
    "eval_w(v, principal)": lambda v: eval_w(v, PRINCIPAL),
    "eval_w(v, lower)": lambda v: eval_w(v, LOWER),
    "w_derivative(v, principal)": lambda v: w_derivative(v, PRINCIPAL),
    "w_derivative(v, lower)": lambda v: w_derivative(v, LOWER),
    "reach_from_variation(v, lower)": lambda v: reach_from_variation(v, LOWER),
    "reach_from_variation(v, principal)": lambda v: reach_from_variation(v, PRINCIPAL),
    "reach_from_energy(v, T)": lambda v: reach_from_energy(v, 300.0),
    "reach_from_energy(E, v)": lambda v: reach_from_energy(1e-21, v),
    "entropy_to_work(v, T)": lambda v: entropy_to_work(v, 300.0),
    "entropy_to_work(bits, v)": lambda v: entropy_to_work(1.0, v),
    "work_to_entropy(v, T)": lambda v: work_to_entropy(v, 300.0),
    "work_to_entropy(work, v)": lambda v: work_to_entropy(1e-21, v),
    "algorithmic_entropy(v, H)": lambda v: algorithmic_entropy(v, 1.0),
    "algorithmic_entropy(K, v)": lambda v: algorithmic_entropy(1.0, v),
    "f_exp_negw(v)": f_exp_negw,
    "f_prime(v)": f_prime,
    "matching_loss(v, z)": lambda v: matching_loss(v, 0.0),
    "matching_loss(z_hat, v)": lambda v: matching_loss(0.0, v),
    "shannon_entropy([v])": lambda v: shannon_entropy([v]),
    "FiniteDistribution([p, v])": lambda v: FiniteDistribution([0.5, v]),
    "entropy_variation([p, v], 1)": lambda v: entropy_variation([0.5, v], 1),
    "w_curve(v, hi)": lambda v: w_curve(v, 1.0, 3, PRINCIPAL),
    "w_curve(lo, v)": lambda v: w_curve(0.0, v, 3, PRINCIPAL),
    # One point skips the span check, so W itself must reject it.
    "w_curve(v, v, n=1)": lambda v: w_curve(v, v, 1, PRINCIPAL),
    "reach_curve(v, hi)": lambda v: reach_curve(v, 0.5, 3, LOWER),
    "reach_curve(lo, v)": lambda v: reach_curve(0.1, v, 3, LOWER),
    "reach_curve(v, v, n=1)": lambda v: reach_curve(v, v, 1, LOWER),
    "demiurge_search(temperature=v)": lambda v: demiurge_search("0", "size-descending",
                                                                temperature=v),
    "reachability_report(temperature=v)": lambda v: reachability_report("0", 4, temperature=v),
}
NONFINITE = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf}


def _cases():
    for name, call in CALLS.items():
        for label, v in NONFINITE.items():
            yield pytest.param(call, v, id=f"{name}-{label}")
    # +inf is the energy budget's default (no cap), so only NaN and -inf are out.
    for label in ("nan", "-inf"):
        yield pytest.param(lambda v: Budget(energy=v), NONFINITE[label],
                           id=f"Budget(energy=v)-{label}")


@pytest.mark.parametrize("call, v", _cases())
def test_a_nonfinite_argument_raises_a_package_error(call, v):
    with pytest.raises(ReachcalcError):
        call(v)
