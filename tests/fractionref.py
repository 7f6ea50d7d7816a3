"""Fraction references for `exactmat`'s integer kernels: the entrywise
product, Gauss-Jordan elimination and integrality test, one `Fraction`
operation at a time, as `RationalMatrix` computed them before its arithmetic
moved to the kept integer form.  Each reads only the Fraction interface
(`data`, `row`) and returns Fractions, so a test compares a kernel's result
with `RationalMatrix(rows, cols, reference)`."""

from fractions import Fraction


def matmul(a, b) -> list:
    """The entries of a @ b, row-major: a sum of Fraction products each."""
    return [sum((x * y for x, y in zip(a.row(i), b.data[j::b.cols])), Fraction(0))
            for i in range(a.rows) for j in range(b.cols)]


def row_reduce(a: list, cols: int) -> int:
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


def rank(m) -> int:
    return row_reduce([list(m.row(i)) for i in range(m.rows)], m.cols)


def inverse(m):
    """The entries of the square m's inverse, row-major ([A | I] reduces
    to [I | A^-1]), or None when m is singular."""
    n = m.rows
    a = [list(m.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if row_reduce(a, n) < n:
        return None
    return [x for row in a for x in row[n:]]


def is_integer_after_scale(m, a: Fraction):
    """The entries of m/a, row-major, as ints when every one is an integer,
    else None."""
    scaled = [x / a for x in m.data]
    if any(y.denominator != 1 for y in scaled):
        return None
    return [y.numerator for y in scaled]
