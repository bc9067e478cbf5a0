"""Shannon entropy, per-element entropy variation, and thermodynamic bridges.

The entropy variation of element i is what the total Shannon entropy loses
when i is removed from the sum (no renormalization of the remaining
probabilities): H - H' = -p(i) log2 p(i).  Multiplying bits by k*ln2 gives
algorithmic entropy in J/K, and by k*T*ln2 Landauer work in joules, with
k = 1.38065e-23 J/K.  Below about 1.8e-301 K the unit k*T*ln2 underflows to
0: work is then 0, and dividing work by the unit is a DomainError.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from ._record import Record
from .errors import DomainError, InvalidDistribution

__all__ = [
    "BOLTZMANN_K",
    "LN2",
    "VARIATION_MAX",
    "FiniteDistribution",
    "EntropyVariation",
    "shannon_entropy",
    "entropy_variation",
    "algorithmic_entropy",
    "entropy_to_work",
    "work_to_entropy",
]

#: Boltzmann constant, J/K.
BOLTZMANN_K = 1.38065e-23

LN2 = math.log(2.0)

#: Largest possible entropy variation, attained at p = 1/e: 1/(e ln2).
VARIATION_MAX = 1.0 / (math.e * LN2)

_SUM_TOL = 1e-12


class FiniteDistribution(Record):
    """Probabilities over a finite event set: every p in (0, 1], sum 1.

    Zero probabilities are rejected outright (no 0*log 0 convention); an
    event that cannot occur does not belong in the set.  SolutionSet.weights is one.
    """

    def __init__(self, probabilities: Iterable[float]):
        ps = tuple(float(p) for p in probabilities)
        if not ps:
            raise InvalidDistribution("a distribution needs at least one probability")
        for p in ps:
            if not (0.0 < p <= 1.0):
                raise InvalidDistribution(f"probability {p!r} outside (0, 1]")
        total = math.fsum(ps)
        if abs(total - 1.0) > _SUM_TOL:
            raise InvalidDistribution(f"probabilities sum to {total!r}, not 1")
        self.__dict__["probabilities"] = ps

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, i: int) -> float:
        return self.probabilities[i]


DistributionLike = FiniteDistribution | Sequence[float]


def _as_distribution(dist: DistributionLike) -> FiniteDistribution:
    if isinstance(dist, FiniteDistribution):
        return dist
    return FiniteDistribution(dist)


class EntropyVariation(Record):
    """Entropy variation of one element: total H minus the partial sum H'.

    Public as the paper's definition; reachbench/layers.py wraps entropy_variation.
    """

    def __init__(self, index: int, total_entropy: float, partial_entropy: float, variation: float):
        self.__dict__.update(index=index, total_entropy=total_entropy,
                             partial_entropy=partial_entropy, variation=variation)


def shannon_entropy(dist: DistributionLike) -> float:
    """H = -sum p log2 p, in bits; public for report's planned problem header line."""
    d = _as_distribution(dist)
    h = -math.fsum(p * math.log2(p) for p in d.probabilities)
    return h + 0.0  # fold -0.0 from the single-certain-event case


def entropy_variation(dist: DistributionLike, index: int) -> EntropyVariation:
    """Variation of element `index` (one-based, matching the enumeration 1..m).

    The partial entropy is the plain sum over the other elements; their
    difference is -p(index) log2 p(index), which peaks at 1/(e ln2) when
    p = 1/e.  The variation is that term itself, not the difference of two
    rounded sums.  Public as the paper's definition of the variation.
    """
    d = _as_distribution(dist)
    if not isinstance(index, int) or isinstance(index, bool):
        raise IndexError(f"index must be an integer in 1..{len(d)}, got {index!r}")
    if not 1 <= index <= len(d):
        raise IndexError(f"index {index} outside 1..{len(d)}")
    terms = [-p * math.log2(p) for p in d.probabilities]
    total = math.fsum(terms) + 0.0
    partial = math.fsum(t for j, t in enumerate(terms, start=1) if j != index) + 0.0
    return EntropyVariation(index, total, partial, terms[index - 1] + 0.0)


def algorithmic_entropy(program_bits: float, conditional_entropy_bits: float) -> float:
    """Algorithmic entropy k ln2 (K + H_x) in J/K.

    K is a program-length complexity in bits and H_x the residual entropy of
    the object given the program; both enter additively.  Public for
    report's planned problem header line, which no command prints yet.
    """
    for name, v in (("program_bits", program_bits), ("conditional_entropy_bits", conditional_entropy_bits)):
        if not math.isfinite(v) or v < 0.0:
            raise DomainError(f"{name} must be finite and >= 0, got {v!r}")
    return BOLTZMANN_K * LN2 * (program_bits + conditional_entropy_bits)


def _landauer_unit(temperature: float) -> float:
    # k T ln2: work per bit at temperature T.  Kept in one place so the
    # work<->entropy conversions cancel exactly in floating point.
    if not math.isfinite(temperature) or temperature <= 0.0:
        raise DomainError(f"temperature must be finite and > 0 K, got {temperature!r}")
    return BOLTZMANN_K * temperature * LN2


def _divide_by_unit(amount: float, unit: float, temperature: float) -> float:
    """amount / unit, for the Landauer unit k T ln2 at temperature."""
    if unit == 0.0:
        raise DomainError(f"k T ln2 underflows to 0 at T = {temperature!r} K, "
                          "so work cannot be converted to bits")
    return amount / unit


def entropy_to_work(delta_entropy_bits: float, temperature: float) -> float:
    """Landauer work for an entropy change: dW = k T ln2 dH, in joules."""
    if not math.isfinite(delta_entropy_bits):
        raise DomainError(f"entropy change must be finite, got {delta_entropy_bits!r}")
    return _landauer_unit(temperature) * delta_entropy_bits


def work_to_entropy(delta_work: float, temperature: float) -> float:
    """Inverse of entropy_to_work: dH = dW / (k T ln2), in bits.

    Raises DomainError where k T ln2 underflows to 0 (T below about 1.8e-301 K).
    """
    if not math.isfinite(delta_work):
        raise DomainError(f"work must be finite, got {delta_work!r}")
    return _divide_by_unit(delta_work, _landauer_unit(temperature), temperature)
