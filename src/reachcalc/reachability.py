"""Reachability of a program from its entropy variation.

A solution whose entropy variation is h satisfies P log2 P = -h, so P is
recovered by inverting through the Lambert W function:

    P = exp(W_-1(-h ln2))   (lower branch, the default: P in (0, 1/e])
    P = exp(W_0(-h ln2))    (principal branch: P in [1/e, 1))

The domain is 0 < h <= 1/(e ln2); both branches meet at the right endpoint
where P = 1/e.  An energy form divides the Landauer work E = k T ln2 h back
out, so the ln2 factors cancel exactly.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable

from ._record import Record
from .entropy import LN2, VARIATION_MAX, _landauer_unit
from .errors import DegenerateSetWarning, DomainError, EmptySetError
from .lambertw import BranchChoice, _grid, eval_w

__all__ = [
    "VARIATION_MAX",
    "ReachabilityRecord",
    "reach_from_variation",
    "reach_from_energy",
    "normalize",
    "kol_posterior_identity",
    "reach_curve",
]

_CLAMP = 1e-12


class ReachabilityRecord(Record):
    """Reachability of one program in a solution set.

    `normalized` is P / sum(P) over the set (filled by reachability_report);
    `degenerate` marks the zero-variation single-program case, where the
    reachability is the branch's limiting value rather than a root.
    """

    def __init__(self, program_id: str, p_i: float, variation: float, reachability: float,
                 branch: BranchChoice, energy: float, temperature: float,
                 normalized: float | None = None, degenerate: bool = False):
        self.__dict__.update(program_id=program_id, p_i=p_i, variation=variation,
                             reachability=reachability, branch=branch, energy=energy,
                             temperature=temperature, normalized=normalized, degenerate=degenerate)

    @property
    def length(self) -> int:
        return len(self.program_id)


def reach_from_variation(variation: float, branch: BranchChoice = BranchChoice.LOWER) -> float:
    """Invert P log2 P = -variation on the chosen branch.

    variation must lie in (0, 1/(e ln2)]; values within 1e-12 above the
    bound are clamped to it.  variation == 0 (a deterministic, one-element
    solution set) returns the branch's limiting value, 0 on the lower
    branch and 1 on the principal, with a DegenerateSetWarning.
    """
    if not isinstance(branch, BranchChoice):
        raise DomainError(f"branch must be a BranchChoice, got {branch!r}")
    if math.isnan(variation) or variation < 0.0:
        raise DomainError(f"entropy variation must be in (0, {VARIATION_MAX}], got {variation!r}")
    if variation == 0.0:
        warnings.warn(
            "zero entropy variation: deterministic solution set, reachability "
            "is the limiting value",
            DegenerateSetWarning,
            stacklevel=2,
        )
        return 0.0 if branch is BranchChoice.LOWER else 1.0
    if variation > VARIATION_MAX + _CLAMP:
        raise DomainError(
            f"entropy variation {variation!r} above the maximum 1/(e ln2) = {VARIATION_MAX}"
        )
    v = min(variation, VARIATION_MAX)
    return math.exp(eval_w(-v * LN2, branch).value)


def reach_from_energy(
    energy: float, temperature: float, branch: BranchChoice = BranchChoice.LOWER
) -> float:
    """Reachability from the energy form E = k T ln2 h.

    Dividing by k T ln2 recovers the variation, so the valid window is
    0 < E <= k T / e and the ln2 factors cancel exactly.
    """
    unit = _landauer_unit(temperature)  # validates temperature
    if math.isnan(energy) or energy < 0.0:
        raise DomainError(f"energy must be in (0, kT/e], got {energy!r}")
    variation = energy / unit
    if variation > VARIATION_MAX + _CLAMP:
        raise DomainError(
            f"energy {energy!r} J above the window bound kT/e = {unit * VARIATION_MAX!r} J "
            f"at T = {temperature!r} K"
        )
    return reach_from_variation(variation, branch)


def normalize(records: Iterable[ReachabilityRecord | float]) -> list[float]:
    """Scale reachabilities to a probability measure P_i / sum(P).

    Accepts ReachabilityRecord objects or bare reachability values.  The
    argmax is unchanged by the positive scaling.
    """
    items = list(records)
    if not items:
        raise EmptySetError("cannot normalize an empty solution set")
    values = [it.reachability if isinstance(it, ReachabilityRecord) else float(it) for it in items]
    for v in values:
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"all reachabilities must be finite and > 0, got {v!r}")
    total = math.fsum(values)
    return [v / total for v in values]


def kol_posterior_identity(p_solution_given_problem: float, p_problem: float) -> float:
    """Joint identity P(solution) = P(solution | problem) * P(problem).

    With the Bayesian postulates P(problem) = 1 and
    P(problem | shortest solution) = 1, the joint collapses to the
    conditional; this helper just performs the product.
    """
    for name, v in (
        ("p_solution_given_problem", p_solution_given_problem),
        ("p_problem", p_problem),
    ):
        if math.isnan(v) or not 0.0 <= v <= 1.0:
            raise DomainError(f"{name} must be a probability in [0, 1], got {v!r}")
    return p_solution_given_problem * p_problem


def reach_curve(
    lo: float, hi: float, n: int, branch: BranchChoice = BranchChoice.LOWER
) -> list[tuple[float, float]]:
    """Sample (variation, reachability) at n evenly spaced points on [lo, hi]."""
    return [(h, reach_from_variation(h, branch)) for h in _grid(lo, hi, n)]
