"""Straight-line integer kernels.

A fixed integer linear map applied many times (a recurrence step in
`loop`) costs most of its time in the interpreter's per-term work when it
is evaluated from nested lists.  `Source` records the
map once as straight-line Python: every entry of a vector is a generated
name, and every linear form `c1 x1 + c2 x2 + ...` becomes one assignment
with its zero coefficients and its known-zero operands dropped.  It is a
ring in the sense of `loop` (`matvec` and `add` over vectors of names), so
a recurrence method run once on it records its whole step.
`Source.define` compiles, with `exec`, a function that a caller writes
around the recorded statements (`body`) and the expressions of what it
returns (`expr`): `loop` makes its party methods so, each one function from
its inputs to its new state.

Only integer literals, generated names and calls of the one reducer
`reduce` enter the recorded statements.  A form with more than
`TERMS_PER_STATEMENT` terms is split into partial sums, since CPython
compiles one long sum as a deeply nested expression and a few thousand
terms exceed its recursion limit.

Reduction placement.  A kernel over ciphertext payloads (`loop` compiles the
encrypted controllers' steps) works modulo something, and its entries must
be reduced before they outgrow what the reducer accepts.  `Source` is then
given the reducer and a `limit`, and every generated name carries a bound on
its magnitude in units of the modulus: an input or a reduced entry has
bound 1, and a form sum c x has bound sum |c| bound(x).  Before a form would
exceed the limit, its unreduced operands are reduced first, each with one
emitted `reduce` call that later forms share; `reduced` reduces the entries
a kernel returns, each once.  Without a limit nothing is reduced in between,
and the integer kernels, which pass none, are unchanged.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Tuple, Union

TERMS_PER_STATEMENT = 64

# An entry of a recorded vector: a generated name, or the integer 0.
Entry = Union[str, int]
_NAME = re.compile(r"t[0-9]+")


class Source:
    """Straight-line source under construction, and the ring that records
    it: `matvec` (integer rows times a vector of entries) and `add` (of any
    number of vectors) make one linear form per entry, and refuse operands
    of unequal length (`ValueError`).  `reduce` and
    `limit` place reductions (module docstring); `limit=None` places none
    between the inputs and `reduced`."""

    def __init__(self, reduce=None, limit=None):
        self.params, self.lines, self.count = [], [], 0
        self.reduce, self.limit = reduce, limit
        self.bound = {}      # name -> bound on its magnitude, in units of the modulus
        self.reduction = {}  # name -> the name of its reduced value

    def _name(self, bound: int, reduced=False) -> str:
        self.count += 1
        name = f"t{self.count}"
        self.bound[name] = bound
        if reduced:
            self.reduction[name] = name
        return name

    def vector(self, length: int) -> list:
        """A new input vector of `length` reduced entries, as generated names."""
        names = [self._name(1, reduced=True) for _ in range(length)]
        self.params.append(names)
        return names

    def _bound(self, parts) -> int:
        return sum(abs(c) * self.bound[x] for c, x in parts)

    def _reduced(self, x: Entry) -> Entry:
        if x == 0:
            return 0
        if x not in self.reduction:
            name = self.reduction[x] = self._name(1, reduced=True)
            self.lines.append(f"{name} = reduce({x})")
        return self.reduction[x]

    def reduced(self, v) -> list:
        """The entries of v reduced: each unreduced entry once."""
        return [self._reduced(x) for x in v]

    def linear(self, terms: Iterable[Tuple[int, Entry]]) -> Entry:
        """The sum of c x over `terms`: a new name bound to it, an existing
        name if it is 1 times one name, or 0 if no term is nonzero.  If its
        bound would exceed the limit, its operands are reduced first."""
        parts = []
        for c, x in terms:
            c = int(operator.index(c))  # an integer literal, whatever int type c is
            if c and expr(x) != "0":
                parts.append((c, x))
        if not parts:
            return 0
        bound = self._bound(parts)
        if self.limit is not None and bound > self.limit:
            parts = [(c, self._reduced(x)) for c, x in parts]
            bound = self._bound(parts)
            if bound > self.limit:
                raise ValueError(f"a form of bound {bound} exceeds the limit {self.limit} "
                                 "even over reduced operands")
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        name = self._name(bound)
        for k in range(0, len(parts), TERMS_PER_STATEMENT):
            form = "".join(_term(c, x, first=not i and not k)
                           for i, (c, x) in enumerate(parts[k:k + TERMS_PER_STATEMENT]))
            self.lines.append(f"{name} = {form}" if not k else f"{name} = {name}{form}")
        return name

    def matvec(self, M, v) -> list:
        check_matvec(M, v)
        return [self.linear(zip(row, v)) for row in M]

    def add(self, *vs) -> list:
        check_add(vs)
        return [self.linear((1, x) for x in t) for t in zip(*vs)]

    def body(self, args) -> list:
        """The recorded statements, after binding the names of each input
        vector (in the order `vector` made them) from the source expression
        in `args`."""
        return [f"{', '.join(names)}, = {arg}"
                for arg, names in zip(args, self.params) if names] + self.lines

    def define(self, lines, name: str, names=None):
        """The function `name` that `lines` define (a caller builds them
        around `body` and `expr`), compiled with `reduce` and `names` among
        its globals."""
        namespace = {"reduce": self.reduce, **(names or {})}
        exec(compile("".join(f"{line}\n" for line in lines), "<kernel>", "exec"), namespace)
        return namespace[name]


def check_matvec(M, v):
    """Raises `ValueError` unless every row of M has one entry per entry of
    v: `zip` would drop the entries past the shorter one."""
    if any(len(row) != len(v) for row in M):
        raise ValueError("matrix columns must match the vector's length")


def check_add(vs):
    """Raises `ValueError` unless the vectors `vs` have equal lengths."""
    if len(set(map(len, vs))) > 1:
        raise ValueError("vectors to add must have equal lengths")


def _term(c: int, x: str, first: bool) -> str:
    sign = "-" if c < 0 else ("" if first else "+")
    mag = abs(c)
    product = x if mag == 1 else f"{mag}*{x}"
    return f"{sign}{product}" if first else f" {sign} {product}"


def expr(value) -> str:
    """The source expression of a recorded entry, or of lists and tuples of
    them, nested as given."""
    if isinstance(value, list):
        return "[" + ", ".join(expr(x) for x in value) + "]"
    if isinstance(value, tuple):
        return "(" + "".join(expr(x) + ", " for x in value) + ")"
    if isinstance(value, str) and _NAME.fullmatch(value):
        return value
    if type(value) is int and value == 0:
        return "0"
    raise TypeError(f"not a kernel entry: {value!r}")
