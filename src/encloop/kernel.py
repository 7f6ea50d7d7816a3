"""The compiler of the parties' linear methods: straight-line integer kernels.

Every run, integer or encrypted, repeats one fixed linear map per step, on
small matrices, and a map evaluated from nested lists costs most of its
time in the interpreter's per-term work.  So each linear method of a party
(a recurrence method of `loop`, written over a ring's `matvec` and `add`)
is compiled into the party's method at its first call (`compiled`).  The
method runs once on the recording ring `Source`, over a namespace of the
party's plaintext rows (`rows_of`) and new input vectors: every entry of a
vector is a generated name, and every distinct linear form
`c1 x1 + c2 x2 + ...` becomes one assignment with its zero coefficients and
its known-zero operands dropped.  The record becomes one generated function
(`compile_method`) that reads the party's state by attribute, checks its
inputs' lengths, computes, assigns the new state and returns.  Over
integers that is the whole method (`Protocol`); over other values, such as
the ciphertext payloads of `loop`'s encrypted controllers, a subclass of
`Protocol` says how an input's length reads, what refuses another length,
how entries are reduced, and what the method checks and makes around the
record.  A kernel depends only on the method, the names of its state, the
plaintext rows, its inputs' lengths and the protocol's `key`, so the
process keeps the kernels it used last by those (`kept`), and a party
looks each of its kernels up once and keeps it: no kernel holds a party,
and every call checks its inputs.

Only integer literals, generated names and the `Source`'s reduction
form, over the constants it names, enter the recorded statements: a
kernel calls no reducer where the form is inline.  A form with more than
`TERMS_PER_STATEMENT` terms is split into partial sums, since CPython
compiles one long sum as a deeply nested expression and a few thousand
terms exceed its recursion limit.

Reduction placement.  A kernel over ciphertext payloads works modulo
something, and its entries must be reduced before they outgrow what the
reduction accepts.  `Source` is then given the reduction as a source
form, such as `{} % Q`, with the constants its names bind, and a `limit`,
and every generated name carries a bound on its magnitude in units of the
modulus: an input or a reduced entry has bound 1, and a form sum c x has
bound sum |c| bound(x).  Before a form would exceed the limit, its
unreduced operands are reduced first, each with one emitted assignment of
the reduction form that later forms share; `reduced` reduces the entries
a kernel returns, each once.  Without a limit nothing is reduced in
between, and the integer kernels, which pass none, are unchanged.
"""

from __future__ import annotations

import functools
import operator
import re
from types import SimpleNamespace
from typing import Iterable, Tuple, Union

TERMS_PER_STATEMENT = 64

# An entry of a recorded vector: a generated name, or the integer 0.
Entry = Union[str, int]
_NAME = re.compile(r"t[0-9]+")

# What the process used last, least recent first, by what it is built from
# (`kept`): the kernels, `loop`'s noise tables and the rows of a main
# `rebuild`.  A main plan keeps 5 kernels (payload and integer `step`, the
# reconstruction's `rebuild`, the plant's `observe` and the reference loop's
# closed-loop map, `loop._closed_loop`), its noise table and one entry of
# `rebuild` rows (`loop._through_output`); a prelim plan 5 kernels (payload
# and integer `step`, the plant's `products` and `measure`, and the
# reference loop's map) and its noise table; and each 1 more payload `step`
# per further pad.  The noise table runs the shadow's integer `step` where the centered
# rows are the certified ones.  Plans that differ only in q share the
# integer kernels, and the noise table where their centered rows agree.  32
# keep several plans'.
KERNELS_KEPT = 32
_kernels: dict = {}


class Source:
    """Straight-line source under construction, and the ring that records
    it: `matvec` (integer rows times a vector of entries) and `add` (of any
    number of vectors) make one linear form per entry, and refuse operands
    of unequal length (`ValueError`).  `form` (the source of a reduced
    entry, a format of its name), its `constants` and `limit` place
    reductions (module docstring); `limit=None` places none between the
    inputs and `reduced`."""

    def __init__(self, form=None, constants=None, limit=None):
        self.params, self.lines, self.count = [], [], 0
        self.form, self.constants, self.limit = form, constants or {}, limit
        self.bound = {}      # name -> bound on its magnitude, in units of the modulus
        self.reduction = {}  # name -> the name of its reduced value
        self.forms = {}      # the terms of a named form -> its name

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
            self.lines.append(f"{name} = {self.form.format(x)}")
        return self.reduction[x]

    def reduced(self, v) -> list:
        """The entries of v reduced: each unreduced entry once."""
        return [self._reduced(x) for x in v]

    def linear(self, terms: Iterable[Tuple[int, Entry]]) -> Entry:
        """The sum of c x over `terms`: a new name bound to it, an existing
        name if it is 1 times one name or a form already named with the same
        terms, or 0 if no term is nonzero.  If its bound would exceed the
        limit, its operands are reduced first."""
        parts = []
        for c, x in terms:
            c = int(operator.index(c))  # an integer literal, whatever int type c is
            if c and expr(x) != "0":
                parts.append((c, x))
        if not parts:
            return 0
        key = tuple(parts)
        if key in self.forms:  # names are assigned once: an equal form has its value
            return self.forms[key]
        bound = self._bound(parts)
        if self.limit is not None and bound > self.limit:
            parts = [(c, self._reduced(x)) for c, x in parts]
            bound = self._bound(parts)
            if bound > self.limit:
                raise ValueError(f"a form of bound {bound} exceeds the limit {self.limit} "
                                 "even over reduced operands")
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1]
        name = self.forms[key] = self._name(bound)
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
        around `body` and `expr`), compiled with the reduction's constants
        and `names` among its globals."""
        namespace = {**self.constants, **(names or {})}
        exec(compile("".join(f"{line}\n" for line in lines), "<kernel>", "exec"), namespace)
        return namespace[name]


def kept(key, build, *args):
    """`build(*args)`, kept by `key` while it is among the last
    `KERNELS_KEPT` used, so that what every plan shares stays."""
    run = _kernels.pop(key, None)
    if run is None:
        run = build(*args)
        if len(_kernels) >= KERNELS_KEPT:
            del _kernels[next(iter(_kernels))]
    _kernels[key] = run  # the last used
    return run


def rows_of(m) -> tuple:
    """What the kernels of a party are recorded from, its plaintexts `m` (a
    namespace): the name and the rows of each, a prepared plaintext's
    `rows`."""
    return tuple((k, getattr(M, "rows", M)) for k, M in vars(m).items())


def check_lengths(got: list, want: list, error):
    """Raises `error` unless a compiled method's input vectors have the
    lengths it was recorded at: its state, then its arguments."""
    if got != want:
        raise error(f"input lengths {got} differ from the recorded {want}")


class Protocol:
    """How a compiled method reads, checks and returns around its record:
    over integers here, and over other values in a subclass, which sets
    `length`, an input's length, and `size`, its source expression (a format
    of the input's name); `error`, what recording and a call on inputs of
    other lengths raise; `key`, what else the kernel depends on;
    `reduction`, the (form, constants, limit) of its `Source`; and `lines`.
    `compiled` makes one per party, `Protocol(party)`."""

    length, size, error, key, reduction = len, "len({})", ValueError, None, ()

    def __init__(self, party=None):
        """Over integers every party's is the same."""

    def lines(self, source: Source, p: list, n: int, outputs: list) -> tuple:
        """The checks, the body, the source expressions of the new state
        and of what is returned, and the globals they read, for a method
        whose inputs `p` are its `n` state vectors and then its arguments,
        recorded on `source` as `outputs`: the new state, then what it
        returns."""
        return [], source.body(p), [expr(v) for v in outputs], {}


def compiled(method, protocol=Protocol):
    """A recurrence's `method` as a party's method: compiled
    (`compile_method`) under `protocol(party)` at its first call on the
    party, which keeps the generated method (`kernels`) and calls it from
    then on, through this class attribute, so that a wrapper set on the
    class sees every call.  The recurrence reads its plaintexts from `m`,
    `state` names its state vectors, and its own `method` is the
    `__wrapped__` of this one."""

    @functools.wraps(method)
    def call(self, *args):
        run = self.kernels.get(method)
        if run is None:
            how = protocol(self)
            inputs = (*(getattr(self, k) for k in self.state), *args)
            run = self.kernels[method] = compile_method(
                method, self.state, rows_of(self.m), [how.length(v) for v in inputs], how)
        return run(self, *args)

    return call


def compile_method(method, state: tuple, rows: tuple, lengths: list, protocol=Protocol()):
    """`method` of a recurrence with the plaintext `rows` (`rows_of`), compiled
    under `protocol` for input vectors of `lengths`, those of its `state`
    and then its arguments, and kept (`kept`) by all of these, of
    `protocol` its `key`: one generated function of a party and `method`'s
    arguments that reads the state by attribute, updates it as `method`
    would and returns what it returns.  Lengths the rows do not take raise
    `protocol.error` while recording, and so do other lengths than the
    recorded ones at every call, before the state changes."""
    key = (method, state, rows, tuple(lengths), protocol.key)
    return kept(key, _build, method, state, rows, lengths, protocol)


def _build(method, state: tuple, rows: tuple, lengths: list, protocol):
    """`compile_method`'s kernel: `method` run once on a namespace of
    `rows`, of new input vectors of `lengths` and of the recording ring."""
    source = Source(*protocol.reduction)
    recorded = SimpleNamespace(ring=source, m=SimpleNamespace(**dict(rows)))
    inputs = [source.vector(d) for d in lengths]
    vars(recorded).update(zip(state, inputs))
    try:
        result = method(recorded, *inputs[len(state):])
    except ValueError as e:
        raise protocol.error(e) from None
    many = isinstance(result, tuple)
    p, n = [f"p{k}" for k in range(len(lengths))], len(state)
    checks, body, values, names = protocol.lines(source, p, n, [
        *(getattr(recorded, k) for k in state), *(result if many else (result,))])
    got, error = "".join(f"{protocol.size.format(x)}, " for x in p), protocol.error.__name__
    out = "(" + "".join(f"{v}, " for v in values[n:]) + ")" if many else values[n]
    return source.define([f"def method({', '.join(['self', *p[n:]])}):",
                          *(f"    {x} = self.{k}" for x, k in zip(p, state)),
                          *(f"    {line}" for line in checks),
                          f"    if ({got}) != {tuple(lengths)!r}:",
                          f"        check([{got}], {list(lengths)!r}, {error})",
                          *(f"    {line}" for line in body),
                          *(f"    self.{k} = {v}" for k, v in zip(state, values)),
                          f"    return {out}"], "method",
                         {"check": check_lengths, error: protocol.error, **names})


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
