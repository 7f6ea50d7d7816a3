"""`loop.centered_mod_recover`, whose integer priors lift with integer
arithmetic only, against the window rule in Fractions: the integer
congruent to v mod q in [p - q/2, p + q/2) for p = prior/den.  Numpy-free."""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from encloop.loop import centered_mod_recover

# residues in [0, q) and outside it, on both sides
RESIDUES = st.integers(-2**80, 2**80) | st.integers(-3, 3)
PRIORS = st.integers(-2**80, 2**80) | st.integers(-3, 3) | st.booleans() | st.fractions()
MODULI = st.integers(2, 2**70) | st.sampled_from([2, 3, 4, 5, 2**65, 2**65 + 1])
DENS = st.just(1) | st.integers(1, 10**9)


def window(v: int, prior, q: int, den: int) -> int:
    """The lift of v around prior/den by the window rule, in Fractions."""
    p, half = Fraction(prior) / den, Fraction(q, 2)
    x = v - math.floor((v - p + half) / q) * q
    assert p - half <= x < p + half and (x - v) % q == 0
    return x


def lifts(got: list, want: list) -> bool:
    return got == want and all(type(x) is int for x in got)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(RESIDUES, PRIORS), max_size=6), MODULI, DENS)
@example([(0, 0), (1, 0), (-1, 0), (2, 0)], 2, 1)  # the even window [p - 1, p + 1)
@example([(2, 5), (4, 5), (7, 5), (8, 5)], 3, 1)  # the odd window [p - 1.5, p + 1.5)
@example([(5, 7), (-9, -7), (2**65 + 7, 2**64), (0, True)], 2**65, 1)
@example([(3, Fraction(7, 2)), (2, Fraction(-7, 2)), (6, 9)], 4, 3)
def test_a_list_of_priors_lifts_by_the_window_rule(pairs, q, den):
    """One prior per residue, given as a list or a tuple."""
    v, prior = [r for r, _ in pairs], [p for _, p in pairs]
    want = [window(r, p, q, den) for r, p in pairs]
    assert lifts(centered_mod_recover(v, prior, q, den), want)
    assert lifts(centered_mod_recover(tuple(v), tuple(prior), q, den), want)


@settings(max_examples=500, deadline=None)
@given(st.lists(RESIDUES, max_size=6), PRIORS, MODULI, DENS)
@example([0, 1, 2, 3, -1, -2], 0, 4, 1)
@example([0, 1, 2, 3, -1, -2], 0, 5, 1)
@example([2**65, 2**66 - 1, -1, 2**64], 0, 2**65, 1)
@example([7, 8, 9], 5, 3, 2)
def test_one_prior_lifts_every_residue_by_the_window_rule(v, prior, q, den):
    """One prior for every residue, as the main actuator lifts around 0."""
    want = [window(r, prior, q, den) for r in v]
    assert lifts(centered_mod_recover(v, prior, q, den), want)
