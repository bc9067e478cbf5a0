"""Tests for Shannon entropy, entropy variation, and the thermodynamic bridges."""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reachcalc.entropy import (
    BOLTZMANN_K,
    LN2,
    VARIATION_MAX,
    FiniteDistribution,
    algorithmic_entropy,
    entropy_to_work,
    entropy_variation,
    shannon_entropy,
    work_to_entropy,
)
from reachcalc.errors import DomainError, InvalidDistribution
from reachcalc.machine import Scheme, enumerate_solutions

# Random probability vectors, normalized before use.
weight_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12
)


def normalized(ws):
    total = math.fsum(ws)
    return [w / total for w in ws]


# --------------------------------------------------------------- distributions


def test_distribution_accepts_valid():
    d = FiniteDistribution([0.5, 0.25, 0.25])
    assert len(d) == 3
    assert d[1] == 0.25
    assert d.probabilities == (0.5, 0.25, 0.25)


def test_distribution_rejects_bad_sum():
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([0.5, 0.4])
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([0.5, 0.5 + 1e-9])


def test_distribution_sum_tolerance_is_tight():
    FiniteDistribution([0.5, 0.5 + 9e-13])  # inside the 1e-12 window


def test_distribution_rejects_zero_and_out_of_range():
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([1.0, 0.0])
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([1.5, -0.5])
    with pytest.raises(InvalidDistribution):
        FiniteDistribution([])


def test_single_certain_event():
    d = FiniteDistribution([1.0])
    assert shannon_entropy(d) == 0.0
    assert math.copysign(1.0, shannon_entropy(d)) == 1.0  # +0.0, not -0.0


# --------------------------------------------------------------------- entropy


def test_shannon_pinned_values():
    assert shannon_entropy([0.5, 0.5]) == 1.0
    assert shannon_entropy([0.8, 0.2]) == pytest.approx(0.7219280948873623, rel=1e-14)
    assert shannon_entropy([0.25] * 4) == 2.0


def test_shannon_uniform_is_log2_m():
    for m in (1, 2, 3, 7, 64, 1000, 4096, 65536):
        h = shannon_entropy([1.0 / m] * m)
        assert h == pytest.approx(math.log2(m), abs=1e-12)


def test_shannon_accepts_plain_sequences():
    assert shannon_entropy((0.5, 0.5)) == 1.0


@given(weight_lists)
def test_shannon_nonnegative_and_bounded(ws):
    ps = normalized(ws)
    h = shannon_entropy(ps)
    assert 0.0 <= h <= math.log2(len(ps)) + 1e-9


# ----------------------------------------------------------- entropy variation


def test_variation_pinned_values():
    ev = entropy_variation([0.5, 0.5], 1)
    assert ev.variation == pytest.approx(0.5, abs=1e-12)
    assert ev.total_entropy == 1.0
    assert ev.partial_entropy == pytest.approx(0.5, abs=1e-12)

    assert entropy_variation([1.0], 1).variation == 0.0
    assert entropy_variation([0.8, 0.2], 2).variation == pytest.approx(
        0.46438561897747244, rel=1e-12
    )
    assert entropy_variation([0.8, 0.2], 1).variation == pytest.approx(
        0.2575424759098898, rel=1e-12
    )


def test_variation_indexing_is_one_based():
    ev = entropy_variation([0.9, 0.1], 2)
    assert ev.index == 2
    assert ev.variation == pytest.approx(-0.1 * math.log2(0.1), rel=1e-12)
    with pytest.raises(IndexError):
        entropy_variation([0.9, 0.1], 0)
    with pytest.raises(IndexError):
        entropy_variation([0.9, 0.1], 3)
    with pytest.raises(IndexError):
        entropy_variation([0.9, 0.1], True)


def test_variation_peak_at_one_over_e():
    d = [1.0 / math.e, 1.0 - 1.0 / math.e]
    assert entropy_variation(d, 1).variation == pytest.approx(VARIATION_MAX, rel=1e-13)


def test_variation_max_constant():
    assert VARIATION_MAX == pytest.approx(1.0 / (math.e * math.log(2.0)), rel=1e-15)
    assert f"{VARIATION_MAX:.4f}" == "0.5307"


@given(weight_lists, st.data())
def test_variation_equals_minus_p_log_p(ws, data):
    """The defining identity: variation(i) = -p(i) log2 p(i) for every element."""
    ps = normalized(ws)
    i = data.draw(st.integers(min_value=1, max_value=len(ps)))
    ev = entropy_variation(ps, i)
    p = ps[i - 1]
    assert ev.variation + p * math.log2(p) == pytest.approx(0.0, abs=1e-12)
    assert ev.variation == pytest.approx(ev.total_entropy - ev.partial_entropy, abs=1e-15)
    assert -1e-12 <= ev.variation <= VARIATION_MAX + 1e-12


def test_variation_within_ulps_of_minus_p_log_p():
    """Every variation of a 60-element length-weighted set, checked at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        dist = enumerate_solutions("00000000", 24, scheme=Scheme.LENGTH_WEIGHTED).weights
        assert len(dist) == 60
        for i, p in enumerate(dist.probabilities, start=1):
            exact = -p * mpmath.log(p, 2)
            got = entropy_variation(dist, i).variation
            assert abs(got - exact) <= 4 * math.ulp(float(exact)), i


# ------------------------------------------------------------- thermo bridges


def test_algorithmic_entropy():
    assert algorithmic_entropy(0.0, 0.0) == 0.0
    assert algorithmic_entropy(10.0, 0.0) == pytest.approx(10 * BOLTZMANN_K * LN2, rel=1e-15)
    assert algorithmic_entropy(10.0, 1.0) == pytest.approx(11 * BOLTZMANN_K * LN2, rel=1e-15)
    with pytest.raises(DomainError):
        algorithmic_entropy(-1.0, 0.0)
    with pytest.raises(DomainError):
        algorithmic_entropy(0.0, -1.0)


def test_landauer_number_at_room_temperature():
    w = entropy_to_work(1.0, 300.0)
    assert w == pytest.approx(2.871e-21, rel=1e-3)
    assert w == pytest.approx(2.8709809645202654e-21, rel=1e-15)
    assert entropy_to_work(0.0, 300.0) == 0.0
    assert entropy_to_work(0.5, 300.0) == pytest.approx(w / 2, rel=1e-15)


def test_work_entropy_validation():
    for fn in (entropy_to_work, work_to_entropy):
        with pytest.raises(DomainError):
            fn(1.0, 0.0)
        with pytest.raises(DomainError):
            fn(1.0, -10.0)
        with pytest.raises(DomainError):
            fn(1.0, math.inf)
        with pytest.raises(DomainError):
            fn(math.nan, 300.0)


@pytest.mark.parametrize("temperature", [1e-301, 1e-320, 5e-324])
def test_work_to_entropy_rejects_a_landauer_unit_that_underflows(temperature):
    """Below about 1.8e-301 K, k T ln2 rounds to 0: work is 0, and bits cannot be had back."""
    assert entropy_to_work(1.0, temperature) == 0.0
    for work in (0.0, 1.0, -1e-310):
        with pytest.raises(DomainError, match=re.escape(f"T = {temperature!r} K")):
            work_to_entropy(work, temperature)
    # The least temperature whose unit is not 0: the unit is the least subnormal, 5e-324.
    assert work_to_entropy(5e-324, 1.7892501569595718e-301) == 1.0


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-3, max_value=1e5),
)
def test_work_entropy_roundtrip(bits, temperature):
    back = work_to_entropy(entropy_to_work(bits, temperature), temperature)
    assert back == pytest.approx(bits, rel=1e-12)
