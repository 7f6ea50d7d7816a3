"""`loop.IdealLoop`, whose closed-loop map is compiled once per set of rows,
against the loop it replaced: the same map interpreted with `_dot`
(`DotLoop`), numpy-free.  Every u and every state must have the same
`repr`, so the two agree to the last bit, in signed zeros, infinities and
NaNs too."""

import math
import random
from fractions import Fraction
from itertools import chain

import pytest

from encloop import kernel
from encloop.exactmat import RationalMatrix
from encloop.loop import IdealLoop, _closed_loop
from encloop.planner import ControllerModel, PlantModel

from conftest import random_main_system, random_prelim_system


def _dot(a, b):
    """a . b summed left to right from the integer 0."""
    acc = 0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def dot_step(K, Sr, M, c, z) -> tuple:
    """One step of the closed-loop map interpreted: (u, the next z)."""
    return (tuple([_dot(k, z) + sr for k, sr in zip(K, Sr)]),
            tuple([_dot(m, z) + ci for m, ci in zip(M, c)]))


class DotLoop:
    """The reference loop as `IdealLoop` formed and ran it before it was
    compiled: its rows from the models' float rows, and every step
    interpreted by `dot_step`."""

    def __init__(self, plant, ctrl, x_p0, reference):
        A, B, C = (m.float_rows() for m in (plant.A, plant.B, plant.C))
        F, G, H, J, S, R = (m.float_rows() for m in (
            ctrl.F, ctrl.G, ctrl.H, ctrl.J, ctrl.S, ctrl.R_ref))
        r = [Fraction(x).numerator / Fraction(x).denominator for x in reference.data]
        n, Ct = plant.n, list(zip(*C)) if C else [()] * plant.n
        self.K = [[_dot(j, col) for col in Ct] + h for j, h in zip(J, H)]
        self.Sr = [_dot(row, r) for row in S]
        Kt = list(zip(*self.K)) if self.K else [()] * (n + ctrl.n_x)
        self.M = [[a + _dot(b, k) for a, k in zip(ra + [0.0] * ctrl.n_x, Kt)]
                  for ra, b in zip(A, B)]
        self.M += [[_dot(g, col) for col in Ct] + f for g, f in zip(G, F)]
        self.c = [_dot(b, self.Sr) for b in B] + [_dot(row, r) for row in R]
        self.z = tuple([Fraction(x).numerator / Fraction(x).denominator
                        for x in chain(x_p0, ctrl.x0.data)])

    def step(self) -> tuple:
        u, self.z = dot_step(self.K, self.Sr, self.M, self.c, self.z)
        return u


def check(plant, ctrl, x_p0, reference, horizon) -> list:
    """Runs both loops for `horizon` steps, asserting equal reprs of u and
    z at every step; returns the reference's u and z of every step."""
    ours, theirs = IdealLoop(plant, ctrl, x_p0, reference), DotLoop(plant, ctrl, x_p0, reference)
    assert repr(ours.z) == repr(theirs.z)
    seen = []
    for t in range(horizon):
        u, want = ours.step(), theirs.step()
        assert type(u) is tuple and type(ours.z) is tuple
        assert (t, repr(u), repr(ours.z)) == (t, repr(want), repr(theirs.z))
        seen.append((want, theirs.z))
    assert repr(ours.x_p) == repr(theirs.z[:plant.n])
    return seen


def rmat(rows):
    return RationalMatrix.from_rows(rows)


def stateless(J):
    """u = J y: F, G, R and H, S of no rows or no columns."""
    return ControllerModel(F=RationalMatrix(0, 0, []), G=RationalMatrix(0, len(J[0]), []),
                           R_ref=RationalMatrix(0, 0, []), H=RationalMatrix(len(J), 0, []),
                           J=rmat(J), S=RationalMatrix(len(J), 0, []),
                           x0=RationalMatrix(0, 1, []))


@pytest.mark.parametrize("fixture,horizon", [("batch", 600), ("tanks", 200)])
def test_bundled(request, fixture, horizon):
    sc = request.getfixturevalue(fixture)
    check(sc.plant, sc.ctrl, sc.x_p0, sc.reference, horizon)


def test_random_systems():
    rng = random.Random(2033)
    for _ in range(8):
        plant, ctrl, _, reference, x_p0 = random_main_system(rng)
        check(plant, ctrl, x_p0, reference, 200)
        plant, ctrl, reference, x_p0 = random_prelim_system(rng)
        check(plant, ctrl, x_p0, reference, 200)


def test_a_controller_without_a_state_or_a_reference():
    plant = PlantModel(A=rmat([["0.2"]]), B=rmat([[1]]), C=rmat([[1]]))
    seen = check(plant, stateless([["-0.2"]]), (Fraction(1),), RationalMatrix(0, 1, []), 50)
    assert seen[0][0] == (-0.2,)


def test_products_that_underflow_to_minus_zero():
    """Products of opposite signs below the smallest float are -0.0; the
    sums start from the integer 0, so they add up to 0.0."""
    tiny = Fraction(1, 10**200)
    plant = PlantModel(A=rmat([[-tiny, 0], [0, tiny]]), B=rmat([[tiny], [-tiny]]),
                       C=rmat([[1, 1]]))
    seen = check(plant, stateless([[-tiny]]), (tiny, -tiny), RationalMatrix(0, 1, []), 6)
    assert all(math.copysign(1.0, x) == 1.0 and x == 0.0
               for u, z in seen for x in chain(u, z))


def test_a_diverging_loop_reaches_inf_and_then_nan():
    """x1 grows by 10^200 a step and overflows; x2 <- x1 - x2 then meets
    inf - inf, and 0.0 * inf spreads the NaN."""
    plant = PlantModel(A=rmat([[10**200, 0], [1, -1]]), B=rmat([[0], [1]]),
                       C=rmat([[0, 1]]))
    seen = check(plant, stateless([[0]]), (1, 0), RationalMatrix(0, 1, []), 8)
    reprs = [repr(step) for step in seen]
    first_inf = next(t for t, r in enumerate(reprs) if "inf" in r)
    first_nan = next(t for t, r in enumerate(reprs) if "nan" in r)
    assert first_inf < first_nan and "nan" in reprs[-1]


def test_the_map_keeps_zeros_of_every_kind():
    """Rows with 0, 0.0, -0.0, inf and NaN coefficients: every term is
    summed, none dropped, and each with its own value."""
    rows = [([[0, -0.0, 2.5], [0.0, float("inf"), -1.0]], [0, -0.0],
             [[-0.0, 1.0, 0.0], [0, 0, 0], [float("nan"), 0.5, -0.0]], [-0.0, 0, 1e308]),
            ([[0.0, 0.0, 2.5], [0, float("inf"), -1.0]], [0.0, 0.0],
             [[0.0, 1.0, 0], [0.0, 0.0, 0.0], [float("nan"), 0.5, 0.0]], [0.0, 0.0, 1e308])]
    for z in [(0.0, 0.0, 0.0), (-0.0, 1.0, -0.0), (float("inf"), -0.0, 1e308),
              (1e-320, -1e-320, float("-inf")), (0, -0.0, 0.0)]:
        for K, Sr, M, c in rows:
            assert repr(_closed_loop(K, Sr, M, c)(z)) == repr(dot_step(K, Sr, M, c, z))


def test_a_long_row_is_summed_in_order():
    """A row of more terms than one statement holds sums on, left to right:
    each term added alone would round differently."""
    n = 3 * kernel.TERMS_PER_STATEMENT + 5
    row = [1e16 if j % 7 == 0 else (-1.0) ** j * (1.0 + j / 3) for j in range(n)]
    K, M = [row], [row[j:] + row[:j] for j in range(n)]
    z = tuple((-1.0) ** j * 1e-3 * (j + 1) for j in range(n))
    f = _closed_loop(K, [0.5], M, [0.0] * n)
    for _ in range(3):
        (u, next_z), want = f(z), dot_step(K, [0.5], M, [0.0] * n, z)
        assert repr((u, next_z)) == repr(want)
        z = next_z
