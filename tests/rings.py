"""The interpreted rings the tests check the compiled kernels against.

`loop`'s rings only embed plaintexts and encrypt; every run records the
recurrences' `matvec` and `add` into compiled kernels.  Here the two
operations run op by op: `IntRing` on Python integers, `CipherRing`
through the staged `he` ops `he.plain_matmul` and `he.add`, and `FormRing`
on noise forms.  A recurrence of `loop` on one of them
(`MainRecurrence(IntRing(), plan)`) is the reference its compiled party, or
the noise table, must match."""

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
    """A ciphertext under other scheme parameters than the keys' is refused
    by `matvec` too, as by `he.add` and the compiled kernels."""

    def matvec(self, M, ct):
        if ct.params != self.pk.params:
            raise he.DimensionMismatchError("ciphertexts from different schemes")
        return he.plain_matmul(M, ct)

    @staticmethod
    def add(first, *rest):
        for ct in rest:
            first = he.add(first, ct)
        return first


class FormRing(loop.CipherRing):
    """Noise forms: a vector entry is the integer coefficients of its noise
    over the noises of the fresh entries made so far, as a dict from the
    fresh entry's number to a nonzero coefficient.  `fresh` numbers its
    entries one by one; a product multiplies by the plaintext's rows
    centered mod q, as every `he` product does; `bound` is an entry's exact
    noise bound, FRESH_NOISE_BOUND times the sum of its absolute
    coefficients."""

    def __init__(self, q: int):
        super().__init__(None, q, None)
        self.made = 0

    def fresh(self, values):
        first, self.made = self.made, self.made + len(values)
        return [{k: 1} for k in range(first, self.made)]

    @staticmethod
    def matvec(M, v):
        kernel.check_matvec(M.rows, v)
        return [_form(zip(row, v)) for row in M.rows]

    @staticmethod
    def add(*vs):
        kernel.check_add(vs)
        return [_form((1, x) for x in t) for t in zip(*vs)]

    @staticmethod
    def bound(form) -> int:
        return he.FRESH_NOISE_BOUND * sum(map(abs, form.values()))


def _form(terms) -> dict:
    """The sum of c x over `terms`, for integers c and forms x."""
    out = {}
    for c, x in terms:
        for k, a in x.items():
            out[k] = out.get(k, 0) + c * a
    return {k: a for k, a in out.items() if a}
