"""The compiler of `kernel`, on a recurrence of its own: no `loop` party,
and no numpy."""

import copy
import re
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encloop import kernel

from rings import IntRing


class Filter:
    """A small integer recurrence over a ring's `matvec` and `add`: it emits
    y = C x and the running sum s <- s + y, and moves x <- A x + B u."""

    state = ("x", "s")

    def __init__(self, ring, m: dict, x, s):
        self.ring, self.kernels = ring, {}
        self.m = SimpleNamespace(**m)
        self.x, self.s = x, s

    def step(self, u):
        mv, add, m = self.ring.matvec, self.ring.add, self.m
        y = mv(m.C, self.x)
        self.x, self.s = add(mv(m.A, self.x), mv(m.B, u)), add(self.s, y)
        return y, self.s

    def output(self):
        return self.ring.matvec(self.m.C, self.x)


class CompiledFilter(Filter):
    """`Filter` with its methods compiled over integers; the recording ring
    is the only one it runs on."""

    step, output = kernel.compiled(Filter.step), kernel.compiled(Filter.output)

    def __init__(self, m: dict, x, s):
        super().__init__(None, m, x, s)


ENTRIES = st.integers(-2**70, 2**70) | st.sampled_from([0, 1, -1])


@st.composite
def filters(draw):
    """The plaintext rows of a `Filter` (tuples, as a party keeps them), with
    n states, k inputs and r outputs, and a starting x and s."""
    n, k, r = (draw(st.integers(0, 3)) for _ in range(3))

    def rows(height, width):
        return tuple(tuple(draw(st.lists(ENTRIES, min_size=width, max_size=width)))
                     for _ in range(height))

    def vector(length):
        return draw(st.lists(ENTRIES, min_size=length, max_size=length))

    m = {"A": rows(n, n), "B": rows(n, k), "C": rows(r, n)}
    return m, vector(n), vector(r), [vector(k) for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(filters(), st.data())
def test_the_compiled_method_is_the_op_by_op_method(system, data):
    """At every call, on vectors of the recorded lengths, each compiled
    method returns, and leaves as the new state, what the recurrence's own
    method computes op by op on `IntRing`.  A state vector or argument one
    entry longer or shorter is refused with `kernel.check_lengths`' message,
    and the state stays as it was."""
    m, x, s, inputs = system
    compiled, reference = CompiledFilter(m, list(x), list(s)), Filter(IntRing(), m, x, s)
    for u in inputs:
        assert compiled.output() == reference.output()
        got, want = compiled.step(u), reference.step(u)
        assert isinstance(got, tuple) and got == want
        assert (compiled.x, compiled.s) == (reference.x, reference.s)

    state, u = [compiled.x, compiled.s], list(inputs[0])
    recorded = [len(v) for v in (*state, u)]
    vectors = [*state, u]
    i = data.draw(st.integers(0, 2))
    shorter = vectors[i] and data.draw(st.booleans())
    vectors[i] = vectors[i][:-1] if shorter else vectors[i] + [0]
    compiled.x, compiled.s = vectors[:2]
    with pytest.raises(ValueError) as want:
        kernel.check_lengths([len(v) for v in vectors], recorded, ValueError)
    with pytest.raises(ValueError) as refused:
        compiled.step(vectors[2])
    assert str(refused.value) == str(want.value)
    assert compiled.x is vectors[0] and compiled.s is vectors[1]


def test_parties_of_equal_rows_share_a_kernel_that_holds_no_party(monkeypatch):
    """A kernel is kept by the method, the state, the plaintext rows and the
    input lengths: a second party of equal rows compiles nothing, one whose
    input is longer compiles its own, and a party is freed once dropped,
    though its kernel stays kept."""
    defined, define = [], kernel.Source.define

    def counting(source, *args):
        defined.append(source)
        return define(source, *args)

    monkeypatch.setattr(kernel.Source, "define", counting)
    m = {"A": ((2, 0), (1, 1)), "B": ((1,), (0,)), "C": ((0, 3),)}
    first = CompiledFilter(m, [1, 2], [0])
    assert first.step([5]) == ([6], [6])
    party = weakref.ref(first)
    del first
    assert party() is None
    second = CompiledFilter(copy.deepcopy(m), [1, 2], [0])
    assert second.step([5]) == ([6], [6])
    assert len(defined) == 1
    wider = CompiledFilter({**m, "B": ((1, 1), (0, 0))}, [1, 2], [0])
    assert wider.step([5, 1]) == ([6], [6])
    assert len(defined) == 2


def test_a_kernel_in_use_stays_kept(monkeypatch):
    """`kernel.kept` keeps the kernels used last, not those built last: a
    kernel that every plan shares, such as the integer step of plans that
    differ only in q, is not evicted by the kernels of the plans after it."""
    monkeypatch.setattr(kernel, "KERNELS_KEPT", 2)
    built = []

    def build(name):
        built.append(name)
        return name

    for name in ("shared", "a", "shared", "b", "shared"):
        assert kernel.kept(name, build, name) == name
    assert built == ["shared", "a", "b"]


def test_equal_rows_name_their_form_once(monkeypatch):
    """A form of the same terms as one already named takes its name: rows
    that repeat emit their form once, and the compiled method still
    computes what the recurrence does op by op."""
    defined = []
    define = kernel.Source.define

    def recording(source, lines, *args):
        defined.append(lines)
        return define(source, lines, *args)

    monkeypatch.setattr(kernel.Source, "define", recording)
    m = {"A": ((2, 3), (2, 3)), "B": ((1,), (1,)), "C": ((5, -7), (5, -7))}
    compiled = CompiledFilter(m, [1, 2], [0, 4])
    reference = Filter(IntRing(), m, [1, 2], [0, 4])
    for u in ([5], [-4], [2**70]):
        assert compiled.step(u) == reference.step(u)
        assert (compiled.x, compiled.s) == (reference.x, reference.s)
    [lines] = defined
    forms = [line.split(" = ", 1)[1] for line in lines if re.fullmatch(r" +t[0-9]+ = .*", line)]
    # C x and A x once each, A x + B u once, and s + y for each entry of s
    assert len(forms) == len(set(forms)) == 5
