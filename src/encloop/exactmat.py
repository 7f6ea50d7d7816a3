"""Exact rational matrix arithmetic.

All plant and controller coefficients are rationals (decimal data parses
exactly), so every integrality question ("does F/a have integer entries?")
has an exact yes/no answer, and every matrix, the all-zero one included,
has a largest integerizing scale in (0, 1] (`max_integer_scale`).  This
module keeps that arithmetic exact.  Fractions are its interface (`data`,
`row`, indexing); the arithmetic runs on each matrix's kept integer form,
d m as ints and d, the lcm of m's denominators, made once per matrix and
carried by every result of an integer operation: products are one integer
dot product per entry, rank and inverse are fraction-free (Bareiss)
elimination, and integrality, scales and norms read the numerators.  A
result's Fractions are built only when read.  The module is also the
planners' stability gate: `spectral_radius_below` decides rho(m) < s by the
Schur-Cohn test on the exact characteristic polynomial
(`characteristic_polynomial`, kept with the integer form).  Floats leave
the module in two places: `float_rows`, and `spectral_radius`, the radius
that plans and error messages report.  It splits off the polynomial's zero
roots and its repeated factors exactly, and only then finds the remaining
simple roots in complex floats (`_simple_roots`), so a nilpotent matrix
reads exactly 0.0 and a repeated eigenvalue is found as accurately as a
simple one.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .records import Record

Rational = Union[int, str, Fraction]


class ExactMatError(Exception):
    pass


class NonSquareError(ExactMatError):
    pass


class DimensionMismatchError(ExactMatError):
    pass


class SingularMatrixError(ExactMatError):
    pass


def as_fraction(x) -> Fraction:
    """Exact conversion; decimal strings like "0.26" become 13/50, "p/q" works too.

    Binary floats are converted exactly (their binary expansion is a rational).
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def as_ratio(x) -> tuple:
    """Exact (numerator, denominator > 0) of x; an int passes through
    without building a Fraction."""
    if isinstance(x, int):
        return x, 1
    f = as_fraction(x)
    return f.numerator, f.denominator


def rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd over Q: largest rational dividing both (gcd(p1/q1, p2/q2) = gcd(p1 q2, p2 q1)/(q1 q2))."""
    a, b = abs(a), abs(b)
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


class RationalMatrix:
    """Dense matrix of Fractions, row-major.  Supports zero-sized dimensions.

    The matrix is kept as its integer form (`_form`), d m row-major as ints
    and d, the lcm of its denominators, so that equal matrices have equal
    forms; and as its Fractions (`data`).  Each is made from the other when
    first read."""

    __slots__ = ("rows", "cols", "_data", "_nums", "_den", "_charpoly")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"need {rows}x{cols}={rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self._data = tuple(entries)
        self._nums = self._den = self._charpoly = None

    @classmethod
    def _from_form(cls, rows: int, cols: int, nums, den: int) -> "RationalMatrix":
        """The matrix nums/den (den > 0), its integer form reduced by
        gcd(den, *nums): what is left of den is the lcm of the entries'
        denominators."""
        g = math.gcd(den, *nums)
        m = cls.__new__(cls)
        m.rows, m.cols, m._data, m._charpoly = rows, cols, None, None
        m._nums, m._den = tuple([x // g for x in nums]), den // g
        return m

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Rational]]) -> "RationalMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise DimensionMismatchError("ragged rows")
        return cls(nr, nc, [as_fraction(x) for r in rows for x in r])

    @classmethod
    def column(cls, entries: Iterable[Rational]) -> "RationalMatrix":
        vals = [as_fraction(x) for x in entries]
        return cls(len(vals), 1, vals)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls._from_form(rows, cols, [0] * (rows * cols), 1)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._from_form(n, n, [x for row in identity_rows(n) for x in row], 1)

    # -- access -------------------------------------------------------

    @property
    def data(self) -> tuple:
        """The entries, row-major, as Fractions."""
        if self._data is None:
            d = self._den
            self._data = tuple([Fraction(x, d) for x in self._nums])
        return self._data

    def _form(self) -> tuple:
        """The integer form: (d m row-major as a tuple of ints, d), d the lcm
        of the entries' denominators."""
        if self._nums is None:
            den = math.lcm(*(x.denominator for x in self._data))
            self._nums = tuple([x.numerator * (den // x.denominator) for x in self._data])
            self._den = den
        return self._nums, self._den

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def float_rows(self) -> list:
        """The entries as rows (lists) of correctly rounded floats, each
        one integer division (what `float` of a Fraction computes)."""
        nums, d = self._form()
        c = self.cols
        return [[x / d for x in nums[i * c:(i + 1) * c]] for i in range(self.rows)]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self._form() == other._form()
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._form()))

    def __repr__(self):
        return f"RationalMatrix({self.to_lists()!r})"

    # -- arithmetic ---------------------------------------------------

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        """self + sign other, over the lcm of the two denominators."""
        a, da = self._form()
        b, db = other._form()
        d = math.lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        return RationalMatrix._from_form(self.rows, self.cols,
                                       [x * fa + y * fb for x, y in zip(a, b)], d)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} + {other.shape}")
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} - {other.shape}")
        return self._combine(other, -1)

    def __neg__(self) -> "RationalMatrix":
        a, d = self._form()
        return RationalMatrix._from_form(self.rows, self.cols, [-x for x in a], d)

    def scale(self, c) -> "RationalMatrix":
        p, q = as_ratio(c)
        a, d = self._form()
        return RationalMatrix._from_form(self.rows, self.cols, [x * p for x in a], d * q)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.shape} @ {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        a, da = self._form()
        b, db = other._form()
        cols = [b[j::m] for j in range(m)]
        out = [sum(map(operator.mul, a[i * k:(i + 1) * k], col))
               for i in range(n) for col in cols]
        return RationalMatrix._from_form(n, m, out, da * db)

    def matpow(self, k: int) -> "RationalMatrix":
        if self.rows != self.cols:
            raise NonSquareError("power of a non-square matrix")
        acc = RationalMatrix.identity(self.rows)
        for _ in range(k):
            acc = acc @ self
        return acc

    def inverse(self) -> "RationalMatrix":
        """Exact Gauss-Jordan inverse of m = N/d: [N | I] reduces,
        fraction-free, to [p I | p N^-1] (`_row_reduce`), and m^-1 = d N^-1."""
        if self.rows != self.cols:
            raise NonSquareError("inverse of a non-square matrix")
        n = self.rows
        rows, d = integer_rows(self)
        a = [row + unit for row, unit in zip(rows, identity_rows(n))]
        rank, p = _row_reduce(a, n)
        if rank < n:
            raise SingularMatrixError("matrix is singular")
        if p < 0:
            p, d = -p, -d
        return RationalMatrix._from_form(n, n, [x * d for row in a for x in row[n:]], p)

    def rank(self) -> int:
        """Exact rank: the pivot count of fraction-free Gauss-Jordan
        elimination of d m."""
        return _row_reduce(integer_rows(self)[0], self.cols)[0]

    def denominator_lcm(self) -> int:
        return self._form()[1]


def _row_reduce(a: list, cols: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination (Bareiss), in place, of the
    integer rows `a` on their first `cols` columns; returns the pivot count,
    the rank of those columns, and the last pivot (1 if none).  A pivot p in
    row k takes every other row a_i to (p a_i - a_ik a_k)/p', p' the pivot
    before it; the division is exact, since every entry stays a minor of the
    input (Sylvester's identity).  Earlier pivots become p too, so a reduction
    of rank `cols` leaves p I, p = +-det, in those columns.  Later columns
    follow the row operations."""
    rank, prev = 0, 1
    for col in range(cols):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pivot_row = a[rank]
        p = pivot_row[col]
        for r in range(len(a)):
            if r != rank:
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], pivot_row)]
        prev = p
        rank += 1
    return rank, prev


# -- block assembly ----------------------------------------------------


def _common_form(mats) -> tuple:
    """The mats' numerators over the lcm d of their denominators, and d."""
    forms = [m._form() for m in mats]
    d = math.lcm(*(den for _, den in forms))
    return [[x * (d // den) for x in nums] for nums, den in forms], d


def hstack(*mats: RationalMatrix) -> RationalMatrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatchError("hstack row mismatch")
    parts, d = _common_form(mats)
    nums = []
    for i in range(rows):
        for m, part in zip(mats, parts):
            nums.extend(part[i * m.cols:(i + 1) * m.cols])
    return RationalMatrix._from_form(rows, sum(m.cols for m in mats), nums, d)


def vstack(*mats: RationalMatrix) -> RationalMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatchError("vstack column mismatch")
    parts, d = _common_form(mats)
    return RationalMatrix._from_form(sum(m.rows for m in mats), cols,
                                     [x for part in parts for x in part], d)


def block(rows_of_blocks) -> RationalMatrix:
    return vstack(*[hstack(*row) for row in rows_of_blocks])


# -- integer rows ------------------------------------------------------


def identity_rows(n: int, c: int = 1) -> list:
    """c times the n x n identity, as integer rows (lists)."""
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


def matmul_rows(a: list, b: list) -> list:
    """The product of the integer rows a and b (b with at least one row)."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def inf_norm_rows(rows) -> int:
    """Induced infinity norm of integer rows: max absolute row sum (0 for none)."""
    return max((sum(map(abs, row)) for row in rows), default=0)


# -- norms and spectra -------------------------------------------------


def inf_norm(m: RationalMatrix) -> Fraction:
    """Induced infinity norm: max absolute row sum.  Exact."""
    rows, d = integer_rows(m)
    return Fraction(inf_norm_rows(rows), d)


def integer_rows(m: RationalMatrix) -> tuple:
    """d m as rows (lists) of ints, d the lcm of m's denominators, and d:
    the matrix's kept integer form."""
    nums, d = m._form()
    c = m.cols
    return [list(nums[i * c:(i + 1) * c]) for i in range(m.rows)], d


def characteristic_polynomial(m: RationalMatrix) -> tuple:
    """The exact characteristic polynomial det(x I - d m) of the integer
    matrix d m, d the lcm of m's denominators: its integer coefficients,
    leading 1 first, as a tuple, and d.  The eigenvalues of m are its roots
    over d.  Computed once per matrix (`_faddeev_leverrier`) and kept with
    its integer form."""
    if m.rows != m.cols:
        raise NonSquareError("characteristic polynomial of a non-square matrix")
    if m._charpoly is None:
        N, d = integer_rows(m)
        m._charpoly = _faddeev_leverrier(N), d
    return m._charpoly


def _faddeev_leverrier(N: list) -> tuple:
    """det(x I - N) of the square integer rows N, leading 1 first.  With
    M_1 = I, c_k = -tr(N M_k)/k and M_(k+1) = N M_k + c_k I; each division
    by k is exact over the integers."""
    n = len(N)
    coeffs, Mk = [1], identity_rows(n)
    for k in range(1, n + 1):
        if k == n:  # only the trace of N M_n is needed
            trace = sum(sum(map(operator.mul, row, col)) for row, col in zip(N, zip(*Mk)))
            coeffs.append(-trace // k)
            break
        Mk = matmul_rows(N, Mk)
        c = -sum(Mk[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            Mk[i][i] += c
    return tuple(coeffs)


def _primitive(p: list) -> list:
    """p over the gcd of its coefficients, with a positive leading one."""
    g = math.gcd(*p)
    return [x // (g if p[0] > 0 else -g) for x in p]


def _pseudo_remainder(a: list, b: list) -> list:
    """The remainder of lc(b)^k a by b over the integers, leading zeros
    dropped (a zero remainder is [])."""
    lb = b[0]
    while len(a) >= len(b):
        f = a[0]
        a = [lb * x - f * y for x, y in zip(a[1:], b[1:])] + [lb * x for x in a[len(b):]]
        while a and a[0] == 0:
            a = a[1:]
    return a


def squarefree_part(p: list) -> list:
    """The primitive integer polynomial with the roots of the integer
    polynomial p, each once: p / gcd(p, p'), the gcd taken by a primitive
    remainder sequence, the division exact (Gauss's lemma)."""
    deg = len(p) - 1
    a, b = _primitive(p), _primitive([x * (deg - i) for i, x in enumerate(p[:-1])])
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            break
        a, b = b, _primitive(r)
    else:
        return _primitive(p)
    quotient, rest = [], list(p)
    while len(rest) >= len(b):
        f = rest[0] // b[0]
        quotient.append(f)
        rest = [x - f * y for x, y in zip(rest[1:], b[1:])] + rest[len(b):]
    return _primitive(quotient)


def spectral_radius_below(m: RationalMatrix, s) -> bool:
    """Whether every eigenvalue of the square m has modulus below s > 0,
    decided exactly.  The characteristic polynomial of m/s, in integers,
    goes through the Schur-Cohn (Jury) reduction: p(z) = a_n z^n + ... + a_0
    has every root in the open unit disk iff |a_0| < |a_n| and the same holds
    for (a_n p(z) - a_0 z^n p(1/z))/z, of degree n - 1 and leading
    coefficient a_n^2 - a_0^2.  A root on the unit circle is a root of both
    terms, so it stays until a degree fails the first test."""
    c, d = characteristic_polynomial(m)
    num, den = as_ratio(s)
    n = len(c) - 1
    p = [x * (d * num) ** (n - k) * den**k for k, x in enumerate(c)]  # den^n c(d s z)
    while len(p) > 1:
        if abs(p[-1]) >= p[0]:
            return False
        p = _primitive([p[0] * x - p[-1] * y for x, y in zip(p[:-1], p[:0:-1])])
    return True


ABERTH_MAX_ITERATIONS = 500


def _simple_roots(c: list) -> list:
    """The roots of the monic float polynomial c (leading 1 first, degree
    >= 1, c[-1] != 0) with simple roots: Aberth-Ehrlich iteration from
    points on the circle of the roots' geometric mean, each root updated in
    turn.  A root stops once |p(z)| is within the rounding error of
    evaluating p at z, and then takes one Newton step."""
    m = len(c) - 1
    radius = abs(c[-1]) ** (1.0 / m)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / m + 0.4)) for k in range(m)]
    absc = [abs(x) for x in c]
    live = set(range(m))
    for _ in range(ABERTH_MAX_ITERATIONS):
        for i in sorted(live):
            zi = z[i]
            p = dp = 0j
            for a in c:
                dp = dp * zi + p
                p = p * zi + a
            az, bound = abs(zi), 0.0
            for a in absc:
                bound = bound * az + a
            if abs(p) <= 4 * m * sys.float_info.epsilon * bound:
                live.discard(i)
                if dp:
                    z[i] = zi - p / dp
                continue
            den = dp - p * sum(1 / (zi - zj) for zj in z if zj != zi)
            # a zero denominator (a critical point) is left by a nudge
            z[i] = zi - p / den if den else zi * (1 + 1e-8) + 1e-300
        if not live:
            break
    return z


def spectral_radius(m: RationalMatrix) -> float:
    """max |eigenvalue| of m, as a float: the largest modulus among the
    roots of m's characteristic polynomial.  Exact zero roots are split off
    and repeated roots reduced to one (`squarefree_part`) in integers, so a
    nilpotent m gives exactly 0.0; the simple roots left are found in
    complex floats (`_simple_roots`) from the monic polynomial in m's own
    eigenvalues, whose coefficients are correctly rounded."""
    p, d = characteristic_polynomial(m)
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    if len(p) == 1:
        return 0.0
    p = squarefree_part(p)
    c = [x / (p[0] * d ** k) for k, x in enumerate(p)]
    if len(c) == 2:
        return abs(c[1])
    return max(map(abs, _simple_roots(c)))


# -- integer scaling ---------------------------------------------------


class IntegralityCertificate(Record, frozen=True):
    """Evidence that a matrix = scale * scaled_entries with integer
    scaled_entries."""

    scale: Fraction
    scaled_entries: tuple  # row-major ints
    rows: int
    cols: int

    def verify(self, m: RationalMatrix) -> bool:
        """Whether m = scale * scaled_entries: with m = N/d and scale = p/q,
        whether d p s = q N entrywise."""
        if (self.rows, self.cols) != m.shape:
            return False
        nums, d = m._form()
        dp, q = d * self.scale.numerator, self.scale.denominator
        return all(dp * s == q * x for s, x in zip(self.scaled_entries, nums))

    def as_matrix(self) -> RationalMatrix:
        return RationalMatrix._from_form(self.rows, self.cols, self.scaled_entries, 1)

    def int_rows(self) -> list:
        """The integer matrix as a list of row lists."""
        return [list(self.scaled_entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]


def max_integer_scale(*mats: RationalMatrix) -> Fraction:
    """Largest a in (0, 1] such that every m/a is an integer matrix.

    The rational gcd g of all nonzero entries is the largest unrestricted
    scale, and its largest divisor not exceeding 1 is g/ceil(g) (g itself
    when g <= 1).  When every entry is zero, every a in (0, 1] divides
    them, and the answer is 1.  The gcd of m = N/d's entries is gcd(N)/d.
    """
    g = Fraction(0)
    for m in mats:
        nums, d = m._form()
        g = rational_gcd(g, Fraction(math.gcd(*nums), d))
    return g / math.ceil(g) if g else Fraction(1)


def is_integer_after_scale(m: RationalMatrix, a):
    """Check every entry of m/a is an integer; return (bool, certificate or None).
    With m = N/d and a = p/q, m/a = q N/(d p), integral where d p divides q N."""
    a = as_fraction(a)
    if a <= 0:
        raise ValueError("scale must be positive")
    nums, d = m._form()
    dp, q = d * a.numerator, a.denominator
    if any(q * x % dp for x in nums):
        return False, None
    return True, IntegralityCertificate(a, tuple([q * x // dp for x in nums]), m.rows, m.cols)


# -- closed-loop block -------------------------------------------------


def block_closed_loop(plant, ctrl) -> RationalMatrix:
    """[[A + B J C, B H], [G C, F]] of the interconnected plant/controller pair."""
    A, B, C = plant.A, plant.B, plant.C
    F, G, H, J = ctrl.F, ctrl.G, ctrl.H, ctrl.J
    return block([[A + B @ J @ C, B @ H], [G @ C, F]])


# -- JSON ---------------------------------------------------------------


def json_entry(x, name: str):
    """x itself, if it may be an exact entry of a JSON config: a decimal or
    "p/q" string, or a bare JSON integer.  Booleans and binary floats are
    rejected so configs cannot smuggle inexact coefficients."""
    if isinstance(x, bool):
        raise ValueError(f"{name}: boolean {x!r} rejected")
    if isinstance(x, float):
        raise ValueError(
            f"{name}: float {x!r} rejected; use a decimal string like \"{x}\""
        )
    return x


def matrix_from_json(obj, name: str = "matrix") -> RationalMatrix:
    """Parse a matrix from JSON rows of `json_entry` entries (exact)."""
    if not isinstance(obj, list) or (obj and not isinstance(obj[0], list)):
        raise ValueError(f"{name}: expected a list of rows")
    try:
        return RationalMatrix.from_rows([[json_entry(x, name) for x in r] for r in obj])
    except ZeroDivisionError:
        raise ValueError(f"{name}: an entry has a zero denominator") from None


def column_from_json(obj, name: str = "vector") -> RationalMatrix:
    """Parse a column from a JSON list of `json_entry` entries (exact); an
    empty list is a column of 0 rows."""
    if not isinstance(obj, list):
        raise ValueError(f"{name}: expected a list of entries")
    return RationalMatrix.column(matrix_from_json([[x] for x in obj], name).data)


def fraction_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_to_json(m: RationalMatrix):
    return [[fraction_to_str(x) for x in m.row(i)] for i in range(m.rows)]

