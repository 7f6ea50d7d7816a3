from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from encloop.quantizer import (
    QuantizerSpec,
    quantize_scalar,
    quantize_vector,
)

spec9 = QuantizerSpec(range_level=9)


def test_a_range_below_one_is_refused():
    with pytest.raises(ValueError, match="range_level must be >= 1"):
        QuantizerSpec(range_level=0)


def test_inside_zero_cell():
    assert quantize_scalar(0.4, spec9) == (0, False)


def test_left_closed_boundary():
    assert quantize_scalar(0.5, spec9) == (1, False)
    assert quantize_scalar(Fraction(1, 2), spec9) == (1, False)


def test_mirror_rule():
    assert quantize_scalar(-0.7, spec9) == (-1, False)
    # mirrored boundary: cells are right-closed on the negative axis
    assert quantize_scalar(Fraction(-3, 2), spec9) == (-2, False)


def test_tie_at_minus_half_resolves_to_zero():
    assert quantize_scalar(Fraction(-1, 2), spec9) == (0, False)


def test_saturation_clamps_and_flags():
    spec = QuantizerSpec(range_level=3)
    assert quantize_scalar(10, spec) == (3, True)
    assert quantize_scalar(-10, spec) == (-3, True)
    assert quantize_scalar(Fraction(7, 2), spec) == (3, True)  # exactly (2R+1)/2
    assert quantize_scalar(Fraction(7, 2) - Fraction(1, 10**9), spec)[1] is False


def test_unbounded_quantizer():
    assert quantize_scalar(10**30 + Fraction(1, 3), None) == (10**30, False)


def test_vector_elementwise_and_flag():
    assert quantize_vector([0.4, -0.7], spec9) == ([0, -1], False)
    assert quantize_vector([0, 0, 0], spec9) == ([0, 0, 0], False)
    vals, sat = quantize_vector([spec9.range_level + 1], spec9)
    assert vals == [spec9.range_level] and sat


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=1000))
def test_error_at_most_half_when_unsaturated(chi):
    psi, sat = quantize_scalar(chi, spec9)
    assert not sat
    assert abs(psi - chi) <= Fraction(1, 2)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 2), max_value=Fraction(8), max_denominator=997))
def test_mirror_symmetry_away_from_boundary(chi):
    if chi == Fraction(1, 2):
        return
    assert quantize_scalar(-chi, spec9)[0] == -quantize_scalar(chi, spec9)[0]


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=64),
    st.fractions(min_value=Fraction(0), max_value=Fraction(4), max_denominator=64),
)
def test_monotone(chi, step):
    lo, _ = quantize_scalar(chi, spec9)
    hi, _ = quantize_scalar(chi + step, spec9)
    assert lo <= hi



@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=1000),
       st.integers(min_value=1, max_value=50),
       st.sampled_from([None, spec9]))
@example(1, 2, 1, spec9)        # +1/2
@example(-1, 2, 3, spec9)       # -1/2
@example(19, 2, 1, spec9)       # +(2R+1)/2
@example(-19, 2, 5, spec9)      # -(2R+1)/2
@example(-19, 2, 5, None)
def test_vector_over_den_agrees_with_scalar(n, d, m, spec):
    """Integer numerators over a common denominator, not reduced (n m over
    d m), quantize as the Fraction n/d does."""
    psi, sat = quantize_scalar(Fraction(n, d), spec)
    assert quantize_vector([n * m], spec, den=d * m) == ([psi], sat)
