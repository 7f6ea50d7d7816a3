"""Exact rational matrix arithmetic.

All plant and controller coefficients are rationals (decimal data parses
exactly), so every integrality question ("does F/a have integer entries?")
has an exact yes/no answer.  This module keeps that arithmetic exact via
`fractions.Fraction`.  Floats leave it in two places: `spectral_radius`
(numpy eigenvalues, which the planners' stability gates read) and
`to_floats`.  The planners' modulus, window and quantizer-range bounds are
floats too: products of exact norms (`inf_norm`) converted to floats, and
float 2-norm series; they are not exact certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

Rational = Union[int, str, Fraction]


class ExactMatError(Exception):
    pass


class ZeroMatrixError(ExactMatError):
    """Scale of an all-zero matrix is undefined."""


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
    """Dense matrix of Fractions, row-major.  Supports zero-sized dimensions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries: Sequence[Fraction]):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"need {rows}x{cols}={rows * cols} entries, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.data = tuple(entries)

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
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    # -- access -------------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.data[i * self.cols + j]

    def row(self, i: int):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def to_floats(self) -> np.ndarray:
        return np.array(
            [[float(x) for x in self.row(i)] for i in range(self.rows)], dtype=float
        ).reshape(self.rows, self.cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"RationalMatrix({self.to_lists()!r})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} + {other.shape}")
        return RationalMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} - {other.shape}")
        return RationalMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, c) -> "RationalMatrix":
        c = as_fraction(c)
        return RationalMatrix(self.rows, self.cols, [c * a for a in self.data])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.shape} @ {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        out = []
        for i in range(n):
            ri = self.row(i)
            for j in range(m):
                out.append(sum((ri[t] * other.data[t * m + j] for t in range(k)), Fraction(0)))
        return RationalMatrix(n, m, out)

    def matpow(self, k: int) -> "RationalMatrix":
        if self.rows != self.cols:
            raise NonSquareError("power of a non-square matrix")
        acc = RationalMatrix.identity(self.rows)
        for _ in range(k):
            acc = acc @ self
        return acc

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def inverse(self) -> "RationalMatrix":
        """Exact Gauss-Jordan inverse: [A | I] reduces to [I | A^-1]."""
        if self.rows != self.cols:
            raise NonSquareError("inverse of a non-square matrix")
        n = self.rows
        a = [list(self.row(i)) + [Fraction(int(i == j)) for j in range(n)]
             for i in range(n)]
        if _row_reduce(a, n) < n:
            raise SingularMatrixError("matrix is singular")
        return RationalMatrix(n, n, [x for row in a for x in row[n:]])

    def rank(self) -> int:
        """Exact rank: the pivot count of Gauss-Jordan elimination."""
        return _row_reduce([list(self.row(i)) for i in range(self.rows)], self.cols)

    def denominator_lcm(self) -> int:
        out = 1
        for x in self.data:
            out = out * x.denominator // math.gcd(out, x.denominator)
        return out


def _row_reduce(a: list, cols: int) -> int:
    """Gauss-Jordan elimination, in place, of the rows `a` (lists of
    Fractions) on their first `cols` columns; returns the pivot count, the
    rank of those columns.  Later columns follow the row operations."""
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


# -- block assembly ----------------------------------------------------


def hstack(*mats: RationalMatrix) -> RationalMatrix:
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionMismatchError("hstack row mismatch")
    data = []
    for i in range(rows):
        for m in mats:
            data.extend(m.row(i))
    return RationalMatrix(rows, sum(m.cols for m in mats), data)


def vstack(*mats: RationalMatrix) -> RationalMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionMismatchError("vstack column mismatch")
    data = []
    for m in mats:
        data.extend(m.data)
    return RationalMatrix(sum(m.rows for m in mats), cols, data)


def block(rows_of_blocks) -> RationalMatrix:
    return vstack(*[hstack(*row) for row in rows_of_blocks])


# -- norms and spectra -------------------------------------------------


def inf_norm(m: RationalMatrix) -> Fraction:
    """Induced infinity norm: max absolute row sum.  Exact."""
    if m.rows == 0 or m.cols == 0:
        return Fraction(0)
    return max(sum((abs(x) for x in m.row(i)), Fraction(0)) for i in range(m.rows))


def spectral_radius(m: RationalMatrix) -> float:
    """max |eigenvalue| in double precision (abs tol ~1e-9 on balanced matrices)."""
    if m.rows != m.cols:
        raise NonSquareError("spectral radius of a non-square matrix")
    if m.rows == 0:
        return 0.0
    ev = np.linalg.eigvals(m.to_floats())
    return float(np.max(np.abs(ev)))


# -- integer scaling ---------------------------------------------------


@dataclass(frozen=True)
class IntegralityCertificate:
    """Evidence that source = scale * scaled_entries with integer scaled_entries."""

    scale: Fraction
    scaled_entries: tuple  # row-major ints
    rows: int
    cols: int
    source: str

    def verify(self, m: RationalMatrix) -> bool:
        if (self.rows, self.cols) != m.shape:
            return False
        return all(
            self.scale * s == x for s, x in zip(self.scaled_entries, m.data)
        )

    def as_matrix(self) -> RationalMatrix:
        return RationalMatrix(self.rows, self.cols, [Fraction(v) for v in self.scaled_entries])

    def int_rows(self) -> list:
        """The integer matrix as a list of row lists."""
        return [list(self.scaled_entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]


def max_integer_scale(*mats: RationalMatrix) -> Fraction:
    """Largest a in (0, 1] such that every m/a is an integer matrix.

    The rational gcd g of all nonzero entries is the largest unrestricted
    scale; when g > 1 the answer is its largest divisor not exceeding 1,
    g/ceil(g).  Raises ZeroMatrixError when every entry is zero.
    """
    g = Fraction(0)
    for m in mats:
        for x in m.data:
            if x != 0:
                g = rational_gcd(g, x)
    if g == 0:
        raise ZeroMatrixError("all-zero matrix has no integer scale")
    if g > 1:
        g = g / math.ceil(g)
    return g


def is_integer_after_scale(m: RationalMatrix, a, source: str = ""):
    """Check every entry of m/a is an integer; return (bool, certificate or None)."""
    a = as_fraction(a)
    if a <= 0:
        raise ValueError("scale must be positive")
    scaled = []
    for x in m.data:
        y = x / a
        if y.denominator != 1:
            return False, None
        scaled.append(y.numerator)
    cert = IntegralityCertificate(a, tuple(scaled), m.rows, m.cols, source)
    return True, cert


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
    """Parse a column from a JSON list of `json_entry` entries (exact)."""
    if not isinstance(obj, list):
        raise ValueError(f"{name}: expected a list of entries")
    return matrix_from_json([[x] for x in obj], name)


def fraction_to_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_to_json(m: RationalMatrix):
    return [[fraction_to_str(x) for x in m.row(i)] for i in range(m.rows)]

