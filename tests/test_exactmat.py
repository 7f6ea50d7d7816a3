import math
import random
import timeit
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from encloop.exactmat import (
    DimensionMismatchError,
    NonSquareError,
    RationalMatrix,
    SingularMatrixError,
    as_fraction,
    block_closed_loop,
    characteristic_polynomial,
    hstack,
    inf_norm,
    integer_rows,
    is_integer_after_scale,
    matrix_from_json,
    max_integer_scale,
    rational_gcd,
    spectral_radius,
    spectral_radius_below,
    squarefree_part,
    vstack,
)
from encloop.planner import ControllerModel, PlantModel

import fractionref
from floatref import floats

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)


@st.composite
def small_int_matrices(draw):
    """Integer matrices up to 4x4, square about half the time; entries this
    small make singular ones common."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.one_of(st.just(rows), st.integers(1, 4)))
    entries = draw(st.lists(st.integers(-2, 2), min_size=rows * cols,
                            max_size=rows * cols))
    return RationalMatrix(rows, cols, [Fraction(x) for x in entries])


def rmat(rows):
    return RationalMatrix.from_rows(rows)


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """Matrices of up to 8 rows and 8 columns, zero-sized ones included:
    entries p/q with |p| <= 50 and 0 < q <= 40, or integers of at most 2 in
    size (singular matrices are common among those), or a product through
    a narrower inner dimension, so of lower rank.  Some are made by an
    integer operation, so that they hold their integer form and no
    Fractions yet."""
    rows = draw(st.integers(0, 8)) if rows is None else rows
    cols = draw(st.integers(0, 8)) if cols is None else cols

    def plain(r, c):
        small = draw(st.booleans())
        nums = draw(st.lists(st.integers(-2, 2) if small else st.integers(-50, 50),
                             min_size=r * c, max_size=r * c))
        dens = [1] * len(nums) if small else draw(
            st.lists(st.integers(1, 40), min_size=r * c, max_size=r * c))
        return RationalMatrix(r, c, [Fraction(a, b) for a, b in zip(nums, dens)])

    if min(rows, cols) > 0 and draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols) - 1))
        m = RationalMatrix(rows, cols, fractionref.matmul(plain(rows, k), plain(k, cols)))
    else:
        m = plain(rows, cols)
    return m.scale(1) if draw(st.booleans()) else m


@st.composite
def known_spectra(draw):
    """(T, radius, nilpotent): T = U D U^-1 with D block diagonal and U an
    integer matrix of determinant 1, so that the radius is known exactly.
    D's blocks are Jordan blocks of up to 3 rows at a rational eigenvalue
    (repeated eigenvalues, within a block and across blocks, and the
    identity), and 2x2 blocks [[a, -b], [b, a]] (complex pairs a +- bi), up
    to 8 rows in all; every eigenvalue is 0 when `nilpotent`."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    zero = draw(st.booleans())
    blocks, radius, size = [], 0.0, 0
    while size < 8:
        if zero:
            kind = "jordan"
        else:
            kind = draw(st.sampled_from(["jordan", "rotation"]))
        if kind == "rotation" and size <= 6:
            a, b = draw(small), draw(small.filter(bool))
            blocks.append([[a, -b], [b, a]])
            radius = max(radius, math.hypot(a, b))
            size += 2
        else:
            lam = Fraction(0) if zero else draw(small)
            k = draw(st.integers(1, min(3, 8 - size)))
            blocks.append([[lam if i == j else Fraction(int(j == i + 1))
                            for j in range(k)] for i in range(k)])
            radius = max(radius, abs(float(lam)))
            size += k
        if draw(st.booleans()):
            break
    D = RationalMatrix.zeros(size, size)
    rows = D.to_lists()
    at = 0
    for blk in blocks:
        for i, row in enumerate(blk):
            rows[at + i][at:at + len(row)] = row
        at += len(blk)
    U = RationalMatrix.identity(size).to_lists()
    for _ in range(draw(st.integers(0, 3 * size))):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if i != j:
            c = draw(st.integers(-2, 2))
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    U = rmat(U)
    return U @ rmat(rows) @ U.inverse(), radius, zero


def test_decimal_strings_parse_exactly():
    assert as_fraction("0.26") == Fraction(13, 50)
    assert as_fraction("13/50") == Fraction(13, 50)
    assert rmat([["-0.03"]])[0, 0] == Fraction(-3, 100)


def test_rational_gcd():
    assert rational_gcd(Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 4)
    assert rational_gcd(Fraction(6), Fraction(4)) == 2
    assert rational_gcd(Fraction(0), Fraction(3, 7)) == Fraction(3, 7)


class TestMaxIntegerScale:
    def test_pair_of_fractions(self):
        assert max_integer_scale(rmat([["1/2", "1/4"]])) == Fraction(1, 4)

    def test_identity_clamps_to_one(self):
        assert max_integer_scale(RationalMatrix.identity(3)) == 1

    def test_integer_matrix_clamps(self):
        assert max_integer_scale(rmat([[2, 4], [6, 8]])) == 1

    def test_batch_reactor_F(self, batch):
        assert max_integer_scale(batch.ctrl.F) == Fraction(1, 100)

    def test_zero_matrix_scales_by_one(self):
        # every a in (0, 1] divides an all-zero matrix; the largest is 1
        assert max_integer_scale(RationalMatrix.zeros(2, 2)) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_maximality(self, entries):
        if all(x == 0 for x in entries):
            return
        m = RationalMatrix(1, len(entries), [Fraction(x) for x in entries])
        a = max_integer_scale(m)
        assert 0 < a <= 1
        ok, cert = is_integer_after_scale(m, a)
        assert ok and cert.verify(m)
        # no strictly larger scale in (a, 1] divides every entry
        for k in (2, 3, 4, 5):
            probe = a * Fraction(k, k - 1)
            if probe > 1:
                continue
            ok2, _ = is_integer_after_scale(m, probe)
            assert not ok2


class TestIntegerAfterScale:
    def test_batch_F_at_one_hundredth(self, batch):
        ok, cert = is_integer_after_scale(batch.ctrl.F, Fraction(1, 100))
        assert ok and cert.verify(batch.ctrl.F)

    def test_batch_F_at_one_fiftieth(self, batch):
        # -0.03 / (1/50) = -3/2 is not an integer
        ok, cert = is_integer_after_scale(batch.ctrl.F, Fraction(1, 50))
        assert not ok and cert is None

    def test_zero_matrix_any_scale(self):
        ok, cert = is_integer_after_scale(RationalMatrix.zeros(2, 3), Fraction(7, 13))
        assert ok and cert.verify(RationalMatrix.zeros(2, 3))

    def test_a_certificate_verifies_no_matrix_of_another_shape(self):
        _, cert = is_integer_after_scale(RationalMatrix.zeros(2, 3), 1)
        assert not cert.verify(RationalMatrix.zeros(3, 2))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(RationalMatrix.identity(4)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_radius(rmat([[0, 1], [0, 0]])) == pytest.approx(0.0, abs=1e-12)

    def test_batch_closed_loop(self, batch):
        rho = spectral_radius(block_closed_loop(batch.plant, batch.ctrl))
        assert rho == pytest.approx(0.8655, abs=1e-3)

    def test_non_square_raises(self):
        with pytest.raises(NonSquareError):
            spectral_radius(rmat([[1, 2, 3], [4, 5, 6]]))

    def test_scalar_scaling(self):
        rng = random.Random(3)
        for _ in range(10):
            m = RationalMatrix(3, 3, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                      for _ in range(9)])
            c = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            lhs = spectral_radius(m.scale(c))
            rhs = abs(float(c)) * spectral_radius(m)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_numpys_eigenvalues(self, data):
        """numpy's eigenvalues as the reference, on rational matrices up to
        8x8 where numpy's own answer is good to 1e-11 of the radius: its
        eigenvalue condition numbers, times eps ||m||_2, say so, and no two
        eigenvalues lie within 1e-6 of the radius of each other."""
        n = data.draw(st.integers(1, 8))
        nums = data.draw(st.lists(st.integers(-50, 50), min_size=n * n, max_size=n * n))
        dens = data.draw(st.lists(st.integers(1, 40), min_size=n * n, max_size=n * n))
        m = RationalMatrix(n, n, [Fraction(a, b) for a, b in zip(nums, dens)])
        a = floats(m)
        vals, X = np.linalg.eig(a)
        rho = float(np.max(np.abs(vals)))
        assume(rho > 0 and np.linalg.cond(X) < 1e12)
        kappa = np.linalg.norm(np.linalg.inv(X), axis=1) * np.linalg.norm(X, axis=0)
        gaps = [abs(x - y) for i, x in enumerate(vals) for y in vals[:i]]
        assume(np.finfo(float).eps * np.linalg.norm(a, 2) * kappa.max() <= 1e-11 * rho)
        assume(min(gaps, default=rho) > 1e-6 * rho)
        assert spectral_radius(m) == pytest.approx(rho, rel=1e-9, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(known_spectra())
    def test_a_known_spectrum(self, case):
        """On `known_spectra`: on a Jordan block of k rows an eigensolver is
        good to about eps^(1/k) only, so the reference is the exact radius,
        to 1e-9; a nilpotent T (every eigenvalue 0) reads exactly 0.0."""
        T, radius, zero = case
        got = spectral_radius(T)
        if zero:
            assert got == 0.0
        else:
            assert got == pytest.approx(radius, rel=1e-9, abs=0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_identity_and_a_nilpotent_shift_are_exact(self, n):
        shift = RationalMatrix(n, n, [Fraction(int(j == i + 1)) for i in range(n)
                                      for j in range(n)])
        assert spectral_radius(RationalMatrix.identity(n)) == 1.0
        assert spectral_radius(shift) == 0.0
        assert spectral_radius(shift.scale(Fraction(1, 2)) + RationalMatrix.identity(n)
                               .scale(Fraction(-2, 3))) == pytest.approx(2 / 3, rel=1e-15)

    def test_the_characteristic_polynomial_is_exact(self, batch):
        """det(x I - d m) of the batch reactor's closed loop, checked at
        x = 0 against the exact determinant, and by Cayley-Hamilton: the
        polynomial of d m annihilates d m."""
        m = block_closed_loop(batch.plant, batch.ctrl)
        p, d = characteristic_polynomial(m)
        N = m.scale(d)
        acc = RationalMatrix.zeros(m.rows, m.cols)
        for c in p:  # Horner in matrices
            acc = acc @ N + RationalMatrix.identity(m.rows).scale(c)
        assert acc == RationalMatrix.zeros(m.rows, m.cols)
        assert len(p) == m.rows + 1 and p[0] == 1

    @pytest.mark.parametrize("p,want", [
        ([1, -3, 3, -1], [1, -1]),            # (x - 1)^3
        ([1, 0, -2, 0, 1], [1, 0, -1]),       # (x^2 - 1)^2
        ([4, 0, 1], [4, 0, 1]),               # squarefree already
        ([2, -2], [1, -1]),
        ([1, 0, 0], [1, 0]),                  # x^2
    ])
    def test_squarefree_part(self, p, want):
        assert squarefree_part(p) == want

    def test_one_call_on_the_batch_closed_loop_is_fast(self, batch):
        m = block_closed_loop(batch.plant, batch.ctrl)
        best = min(timeit.repeat(lambda: spectral_radius(m), number=5, repeat=5)) / 5
        assert best < 0.010


class TestSpectralRadiusBelow:
    @settings(max_examples=200, deadline=None)
    @given(known_spectra(), st.data())
    def test_agrees_with_spectral_radius(self, case, data):
        """Wherever |rho - s| > 1e-9 max(1, s), the exact test says what the
        float `spectral_radius` says, on `known_spectra` (Jordan blocks and
        complex pairs included); s is drawn within 10^-8 to 10^-3 of the
        radius, relatively, or anywhere in [1/100, 4]."""
        T, _, _ = case
        rho = spectral_radius(T)
        if rho > 0 and data.draw(st.booleans()):
            rel = Fraction(data.draw(st.sampled_from([-1, 1])), 10 ** data.draw(st.integers(3, 8)))
            s = Fraction(rho) * (1 + rel)
        else:
            s = data.draw(st.fractions(min_value=Fraction(1, 100), max_value=4,
                                       max_denominator=1000))
        assume(abs(rho - s) > 1e-9 * max(1, s))
        assert spectral_radius_below(T, s) == (rho < s)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_a_jordan_block_at_the_boundary(self, k):
        """A Jordan block of k rows at 1/2 + delta is below 1/2 exactly when
        delta < 0, down to |delta| = 10^-15, where its float radius (good to
        about eps^(1/k)) cannot tell."""
        half = Fraction(1, 2)
        for delta, below in ((Fraction(-1, 10**15), True), (0, False),
                             (Fraction(1, 10**15), False)):
            lam = half + delta
            J = RationalMatrix(k, k, [lam if i == j else Fraction(int(j == i + 1))
                                      for i in range(k) for j in range(k)])
            assert spectral_radius_below(J, half) is below
            assert spectral_radius_below(J.scale(-1), half) is below

    def test_a_complex_pair_on_the_circle(self):
        """3/10 +- 4/10 i has modulus exactly 1/2."""
        R = rmat([["3/10", "-4/10"], ["4/10", "3/10"]])
        assert not spectral_radius_below(R, Fraction(1, 2))
        assert spectral_radius_below(R, Fraction(1, 2) + Fraction(1, 10**15))

    def test_no_eigenvalues_are_all_below(self):
        assert spectral_radius_below(RationalMatrix.zeros(0, 0), Fraction(1, 10))


class TestInfNorm:
    def test_small(self):
        assert inf_norm(rmat([[1, -2], [3, 4]])) == 7

    def test_zero(self):
        assert inf_norm(RationalMatrix.zeros(3, 2)) == 0

    def test_batch_LC_L_by_hand(self, batch):
        # rows of [LC  L] sum to 4|L_i1| + 2|L_i2|; row 3 dominates
        L = batch.L_published
        stacked = hstack(L @ batch.plant.C, L)
        expect = max(4 * abs(L[(i, 0)]) + 2 * abs(L[(i, 1)]) for i in range(4))
        assert inf_norm(stacked) == expect == Fraction(358712, 10000)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(rationals, min_size=4, max_size=4),
           st.lists(rationals, min_size=2, max_size=2))
    def test_submultiplicative(self, ms, vs):
        m = RationalMatrix(2, 2, [Fraction(x) for x in ms])
        v = RationalMatrix.column(vs)
        assert inf_norm(m @ v) <= inf_norm(m) * inf_norm(v)


def test_rational_arithmetic_is_exact():
    rng = random.Random(11)
    m = RationalMatrix(3, 3, [Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                              for _ in range(9)])
    a = max_integer_scale(m)
    assert m.scale(1 / a).scale(a) == m


class TestBlockClosedLoop:
    def test_decoupled_is_block_diagonal(self, batch):
        A, B, C = batch.plant.A, batch.plant.B, batch.plant.C
        ctrl = ControllerModel(
            F=batch.ctrl.F,
            G=RationalMatrix.zeros(4, 2),
            R_ref=batch.ctrl.R_ref,
            H=RationalMatrix.zeros(1, 4),
            J=RationalMatrix.zeros(1, 2),
            S=batch.ctrl.S,
            x0=RationalMatrix.zeros(4, 1),
        )
        cl = block_closed_loop(batch.plant, ctrl)
        for i in range(4):
            for j in range(4):
                assert cl[(i, j)] == A[(i, j)]
                assert cl[(i, j + 4)] == 0
                assert cl[(i + 4, j)] == 0
                assert cl[(i + 4, j + 4)] == batch.ctrl.F[(i, j)]

    def test_pure_gain_no_dynamics(self):
        # 1-D plant a=1/2 under pure output gain j=-1/4 (empty controller state)
        plant = PlantModel(A=rmat([["1/2"]]), B=rmat([[1]]), C=rmat([[1]]))
        ctrl = ControllerModel(
            F=RationalMatrix.zeros(0, 0),
            G=RationalMatrix.zeros(0, 1),
            R_ref=RationalMatrix.zeros(0, 1),
            H=RationalMatrix.zeros(1, 0),
            J=rmat([["-1/4"]]),
            S=rmat([[0]]),
            x0=RationalMatrix.zeros(0, 0),
        )
        cl = block_closed_loop(plant, ctrl)
        assert cl.shape == (1, 1) and cl[(0, 0)] == Fraction(1, 4)

    def test_dimension_mismatch(self, batch):
        bad = PlantModel(A=RationalMatrix.identity(2), B=RationalMatrix.zeros(2, 1),
                         C=RationalMatrix.zeros(3, 2))
        with pytest.raises(DimensionMismatchError):
            block_closed_loop(bad, batch.ctrl)


class TestLinearAlgebra:
    def test_inverse_roundtrip(self):
        rng = random.Random(5)
        m = RationalMatrix(3, 3, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                  for _ in range(9)])
        if m.rank() < 3:
            m = m + RationalMatrix.identity(3).scale(7)
        assert m @ m.inverse() == RationalMatrix.identity(3)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            rmat([[1, 2], [2, 4]]).inverse()

    @settings(max_examples=300, deadline=None)
    @given(small_int_matrices())
    def test_rank_and_inverse_agree_with_numpy(self, m):
        # integer entries: a nonzero minor is at least 1, far above the
        # tolerance of numpy's singular-value rank
        rank = m.rank()
        assert rank == np.linalg.matrix_rank(floats(m))
        if m.rows != m.cols:
            return
        if rank < m.rows:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            assert m @ m.inverse() == RationalMatrix.identity(m.rows)

    def test_matrix_power_exact(self):
        m = rmat([["1/2", 1], [0, "1/2"]])
        assert m.matpow(2) == rmat([["1/4", 1], [0, "1/4"]])


class TestIntegerKernels:
    """Each operation on the integer form against `fractionref` or entrywise
    Fraction arithmetic, on `rational_matrices`: a result must equal the
    reference entry by entry, and its integer form must be the one made
    from those entries, over the lcm of their denominators."""

    @staticmethod
    def check(got, rows, cols, entries):
        want = RationalMatrix(rows, cols, entries)
        assert got.shape == want.shape and got.data == want.data
        assert integer_rows(got) == integer_rows(want)
        assert got == want and hash(got) == hash(want)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_products_and_powers(self, data):
        n, k, m = (data.draw(st.integers(0, 8)) for _ in range(3))
        a, b = data.draw(rational_matrices(n, k)), data.draw(rational_matrices(k, m))
        self.check(a @ b, n, m, fractionref.matmul(a, b))
        square, power = data.draw(rational_matrices(n, n)), data.draw(st.integers(0, 3))
        want = RationalMatrix(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])
        for _ in range(power):
            want = RationalMatrix(n, n, fractionref.matmul(want, square))
        self.check(square.matpow(power), n, n, want.data)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sums_scales_norms_and_stacks(self, data):
        rows, cols = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
        a, b = data.draw(rational_matrices(rows, cols)), data.draw(rational_matrices(rows, cols))
        c = data.draw(st.one_of(rationals, st.integers(-5, 5)))  # integer, negative, zero
        self.check(a + b, rows, cols, [x + y for x, y in zip(a.data, b.data)])
        self.check(a - b, rows, cols, [x - y for x, y in zip(a.data, b.data)])
        self.check(-a, rows, cols, [-x for x in a.data])
        self.check(a.scale(c), rows, cols, [Fraction(c) * x for x in a.data])
        self.check(hstack(a, b), rows, 2 * cols, [x for i in range(rows) for x in a.row(i) + b.row(i)])
        self.check(vstack(a, b), 2 * rows, cols, a.data + b.data)
        assert inf_norm(a) == max((sum(map(abs, a.row(i)), Fraction(0)) for i in range(rows)),
                                  default=0)
        assert a.denominator_lcm() == math.lcm(*(x.denominator for x in a.data))
        assert (a == RationalMatrix.zeros(rows, cols)) == all(x == 0 for x in a.data)
        assert a.float_rows() == [[float(x) for x in a.row(i)] for i in range(rows)]
        g = Fraction(0)
        for x in a.data + b.data:
            g = rational_gcd(g, x)
        assert max_integer_scale(a, b) == (g / math.ceil(g) if g else 1)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rank_and_inverse(self, data):
        n = data.draw(st.integers(0, 8))
        m = data.draw(rational_matrices(n, data.draw(st.one_of(st.just(n), st.integers(0, 8)))))
        assert m.rank() == fractionref.rank(m)
        if m.rows != m.cols:
            return
        want = fractionref.inverse(m)
        if want is None:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            self.check(m.inverse(), n, n, want)

    @settings(max_examples=200, deadline=None)
    @given(rational_matrices(), st.data())
    def test_integrality(self, m, data):
        """At scales that divide m (its largest one over 1 to 3), that may
        not (times 2 to 5), integers and any rationals; a negative or zero
        scale is refused."""
        top = max_integer_scale(m)
        a = data.draw(st.one_of(
            st.integers(1, 3).map(lambda k: top / k), st.integers(2, 5).map(lambda k: top * k),
            st.integers(1, 6).map(Fraction), rationals.filter(lambda x: x > 0)))
        ok, cert = is_integer_after_scale(m, a)
        want = fractionref.is_integer_after_scale(m, a)
        assert ok == (want is not None)
        if not ok:
            assert cert is None
        else:
            assert cert.scale == a and cert.scaled_entries == tuple(want)
            assert cert.verify(m) and cert.as_matrix() == RationalMatrix(
                m.rows, m.cols, [Fraction(x) for x in want])
            if m.data:
                other = RationalMatrix(m.rows, m.cols, (m.data[0] + Fraction(1, 7),) + m.data[1:])
                assert not cert.verify(other)
        for bad in (-a, 0):
            with pytest.raises(ValueError):
                is_integer_after_scale(m, bad)


SQUARE, WIDE = rmat([[1, 2], [3, 4]]), rmat([[1, 2, 3]])
REFUSALS = [  # (id, call, the error it raises)
    ("as_fraction-None", lambda: as_fraction(None), TypeError),
    ("ragged-rows", lambda: rmat([[1, 2], [3]]), DimensionMismatchError),
    ("add-shapes", lambda: SQUARE + WIDE, DimensionMismatchError),
    ("sub-shapes", lambda: SQUARE - WIDE, DimensionMismatchError),
    ("matpow-non-square", lambda: WIDE.matpow(2), NonSquareError),
    ("inverse-non-square", lambda: WIDE.inverse(), NonSquareError),
    ("hstack-rows", lambda: hstack(SQUARE, WIDE), DimensionMismatchError),
    ("vstack-cols", lambda: vstack(SQUARE, WIDE), DimensionMismatchError),
    ("scale-zero", lambda: is_integer_after_scale(SQUARE, 0), ValueError),
    ("json-non-list", lambda: matrix_from_json("1"), ValueError),
]


@pytest.mark.parametrize("call,error", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_malformed_operands_are_refused(call, error):
    with pytest.raises(error):
        call()


class TestJson:
    def test_floats_rejected(self):
        with pytest.raises(ValueError, match="decimal string"):
            matrix_from_json([[0.26]])

    def test_strings_parse(self):
        m = matrix_from_json([["0.26", "-1/3"], ["2", "0"]])
        assert m[(0, 1)] == Fraction(-1, 3)

    def test_integers_allowed(self):
        assert matrix_from_json([[1, 2]])[(0, 1)] == 2
