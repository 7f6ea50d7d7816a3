"""The interpreted rings the tests check the compiled kernels against.

`loop`'s rings only embed plaintexts and encrypt; every run records the
recurrences' `matvec` and `add` into compiled kernels.  Here the two
operations run op by op: `IntRing` on Python integers, and `CipherRing`
through the staged `he` ops `he.plain_matmul` and `he.add`.  A recurrence
of `loop` on one of them (`MainRecurrence(IntRing(), plan)`) is the
reference its compiled party must match."""

from encloop import he, kernel, loop


class IntRing(loop.IntRing):
    """Operands of unequal length raise `ValueError`, as on `kernel.Source`."""

    @staticmethod
    def matvec(M, v):
        kernel.check_matvec(M, v)
        return [sum(m * x for m, x in zip(row, v)) for row in M]

    @staticmethod
    def add(*vs):
        kernel.check_add(vs)
        return [sum(t) for t in zip(*vs)]


class CipherRing(loop.CipherRing):
    @staticmethod
    def matvec(M, ct):
        return he.plain_matmul(M, ct)

    @staticmethod
    def add(first, *rest):
        for ct in rest:
            first = he.add(first, ct)
        return first
