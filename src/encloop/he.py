"""Additively homomorphic encryption over the message space Z_q^n.

Two interchangeable backends:

* ``mock`` -- a transparent mod-q vector carried behind the ciphertext type.
  Bit-deterministic, unbounded horizon; the workhorse for long correctness
  runs where the crypto itself is not under test.

* ``lattice`` -- a Regev-style public-key LWE scheme whose plaintext space
  is natively Z_q (ciphertext modulus Q = q * 2^pad, messages scaled by
  Delta = 2^pad).  Sums and integer-matrix products of plaintexts wrap mod q
  for free.  Every op is linear mod Q, so the noise of a ciphertext is the
  same integer combination of the fresh encryptions' noises as its
  plaintext is of theirs.  A ciphertext carries a bound on that noise, or
  None where nothing bounds it, and `decrypt` checks it against the budget
  (`check_budget`) or refuses: decryption ambiguity is predicted, not
  discovered, and only what is decrypted is checked.  A run compiles its
  products over payloads (`loop`), whose emitted ciphertexts take their
  bounds from the plan's exact noise table (`loop.NoiseTable`) and whose
  states carry none.  The staged ops `plain_matmul` and `add` are the
  reference the tests check those kernels against; they keep a per-vector
  bound (additive for sums; for matrix products, weighted by the largest
  absolute row sum of the matrix centered mod q).  Staged or compiled, a
  product follows one rule: `check_product` admits the plaintext and
  `slot_reduction` reduces the payload.

The LWE dimensions are constants (`DIMENSION`, `SAMPLES`, `NOISE`), so a
fresh ciphertext's noise bound is `FRESH_NOISE_BOUND` in every run; the pad
(`LatticeParams.pad_bits`) is the only per-run setting.

Packed slots.  A lattice ciphertext entry (a_1..a_16, c) is one Python int:
slot 0 holds c and slot j holds a_j, each slot W = bits(Q) + bits(q) + GUARD
bits wide.  Every public-key row is packed the same way, so `encrypt` sums
packed rows, `add` adds two ints, and `plain_matmul` accumulates m * entry
over a row (m the centered residue of the matrix entry mod q, |m| <= q/2,
prepared once per matrix by `PlainMatrix`).  Slots may go negative in
between; a row of at most 2^GUARD columns keeps every slot below 2^(W-1) in
magnitude, so no borrow or carry crosses a slot boundary once the offset
2^(W-1) is added to each slot.  `check_product` refuses a wider product.
The reduction mod Q then is one AND with Q-1 per slot when Q is a power of
two (every q the planner makes), and slot by slot otherwise.  A kernel
compiled over packed payloads (`kernel.Source`) chains products and sums
before it reduces; `slot_reduction` gives it the reducer and the largest
slot magnitude, in units of Q, that the reducer accepts.

Key tables.  `keygen` also sums the public-key rows over each window of
WINDOW = 4 rows into a table of the window's 16 subset sums.  `encrypt`
draws getrandbits(SAMPLES) once per entry, bit i choosing row i, so every
row still enters the sum independently with probability 1/2, and adds one
entry per table: 12 additions instead of up to 48.

The secret is drawn from {-1, 0, 1}^16, a standard LWE variant (Applebaum,
Cash, Peikert, Sahai, CRYPTO 2009), so decryption's inner product is a
signed sum of slots and multiplies no Q-sized numbers:
c - <a, s> = c + (sum of a_j over s_j = -1) + (sum of Q - a_j over
s_j = +1) mod Q.  The full key holds masks for both sets of slots, so
`decrypt` turns an entry into 17 slot values in [0, Q] with two masks and
a subtraction, without unpacking it, and halving folds
(`_Slots.fold`) sum them into slot 0: the total is below 17 Q < 2^W, so no
partial sum carries into the next slot.  The result is reduced mod Q and
rounded with a shift by the pad.  Parameters are sized for exactness, not
for conjectured security; this is a simulation artifact, not a hardened
cryptosystem.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .records import Record


class HEError(Exception):
    pass


class BadParamsError(HEError):
    pass


class OutOfRangeError(HEError):
    pass


class WrongKeyRoleError(HEError):
    pass


class NoiseOverflowError(HEError):
    pass


class DimensionMismatchError(HEError):
    pass


# The lattice backend's LWE dimensions: secret length, public-key sample count
# and per-sample noise magnitude.  A fresh encryption sums a subset of samples.
DIMENSION, SAMPLES, NOISE = 16, 48, 4
FRESH_NOISE_BOUND = SAMPLES * NOISE
# `encrypt` adds one entry per window of WINDOW public-key rows from a table
# of the window's 2^WINDOW subset sums.
WINDOW = 4
# A packed entry has one slot for c and one per a_j; the GUARD bits above
# bits(Q) + bits(q) let `plain_matmul` sum up to 2^GUARD columns in a slot.
SLOTS, GUARD = DIMENSION + 1, 8


class LatticeParams(Record, frozen=True):
    """pad_bits of headroom above the plaintext: Delta = 2^pad_bits."""

    pad_bits: int

    def __post_init__(self):
        if self.pad_bits < 1:
            raise BadParamsError("pad_bits must be positive")


class SchemeParams(Record, frozen=True):
    q: int
    backend: str = "mock"
    lattice: Optional[LatticeParams] = None

    def __post_init__(self):
        if self.q < 2:
            raise BadParamsError("plaintext modulus must be >= 2")
        if self.backend not in ("mock", "lattice"):
            raise BadParamsError(f"unknown backend {self.backend!r}")
        if self.backend == "lattice" and self.lattice is None:
            raise BadParamsError("the lattice backend needs LatticeParams(pad_bits)")

    @classmethod
    def mock(cls, q: int) -> "SchemeParams":
        return cls(q=q, backend="mock")

    @property
    def ct_modulus(self) -> int:
        if self.backend != "lattice":
            raise BadParamsError("ct_modulus only defined for the lattice backend")
        return self.q << self.lattice.pad_bits

    @property
    def delta(self) -> int:
        return 1 << self.lattice.pad_bits

    @cached_property
    def _slots(self) -> "_Slots":
        return _Slots(self.q, self.ct_modulus)


class _Slots:
    """The packed layout of a lattice ciphertext entry under one (q, Q)."""

    def __init__(self, q: int, Q: int):
        self.Q = Q
        self.width = w = Q.bit_length() + q.bit_length() + GUARD
        self.half = 1 << (w - 1)
        self.offset = self.pack([self.half] * SLOTS)
        self.mask = self.pack([Q - 1] * SLOTS) if Q & (Q - 1) == 0 else None
        # `fold`: each (shift, mask) adds the upper slots onto the lower ones
        # and halves the slots left, until slot 0 holds the sum of all
        self.folds, k = [], SLOTS
        while k > 1:
            k = (k + 1) // 2
            self.folds.append((k * w, (1 << (k * w)) - 1))

    def pack(self, slots) -> int:
        w = self.width
        return sum(x << (k * w) for k, x in enumerate(slots))

    def unpack(self, packed: int) -> list:
        """The slots of an entry whose slots all lie in [0, 2^W)."""
        w, full = self.width, (1 << self.width) - 1
        return [(packed >> (k * w)) & full for k in range(SLOTS)]

    def reduce(self, packed: int) -> int:
        """Every slot mod Q; a slot may be any integer of magnitude below
        2^(W-1).  The offset makes every slot nonnegative without touching its
        neighbours, and it is 0 mod Q when Q is a power of two."""
        packed += self.offset
        if self.mask is not None:
            return packed & self.mask
        Q, half = self.Q, self.half
        return self.pack([(x - half) % Q for x in self.unpack(packed)])

    def sign_masks(self, s) -> tuple:
        """The masks `decrypt` applies under the secret s: `plus` covers slot
        0 (c) and the slots j with s_j = -1, `minus` the slots with
        s_j = +1, and `q_minus` holds Q in each of the latter."""
        full = (1 << self.width) - 1
        return (self.pack([full] + [full if s_j == -1 else 0 for s_j in s]),
                self.pack([0] + [full if s_j == 1 else 0 for s_j in s]),
                self.pack([0] + [self.Q if s_j == 1 else 0 for s_j in s]))

    def fold(self, packed: int) -> int:
        """The sum of the slots of an entry whose slots sum below 2^W: no
        partial sum then carries into the next slot."""
        for shift, low in self.folds:
            packed = (packed & low) + (packed >> shift)
        return packed


class KeyMaterial(Record, frozen=True):
    role: str  # "public" | "full"
    params: SchemeParams
    payload: tuple = ()

    def require_full(self):
        if self.role != "full":
            raise WrongKeyRoleError("decryption requires the full key")


class Ciphertext(Record):
    """Opaque encrypted vector (one packed int per entry on the lattice
    backend) and a bound on the noise of every entry: None if nothing
    bounds it, and `decrypt` then refuses it on the lattice backend.  A
    fresh encryption's bound is `FRESH_NOISE_BOUND` (0 on mock, which has
    no noise)."""

    params: SchemeParams
    dim: int
    payload: tuple
    noise_bound: Optional[int]

    def __init__(self, params, dim, payload, noise_bound=None):  # made at every HE op
        self.params, self.dim, self.payload, self.noise_bound = params, dim, payload, noise_bound


def keygen(params: SchemeParams, seed: Optional[int] = None):
    """Returns (public KeyMaterial, full KeyMaterial); deterministic under a seed.
    On the lattice backend the public key holds the SAMPLES packed rows
    (a_i, b_i = <a_i, s> + e_i mod Q) and, per window of WINDOW rows, the
    table of their subset sums; the full key also the `decrypt` masks and,
    last, the secret s."""
    if params.backend == "mock":
        pk = KeyMaterial("public", params)
        sk = KeyMaterial("full", params)
        return pk, sk
    rng = random.Random(seed)
    Q, width = params.ct_modulus, params._slots.width
    s = tuple(x - 1 for x in _below(rng, 3, DIMENSION))
    A = _below(rng, Q, SAMPLES * DIMENSION)
    rows = []
    for k, e in zip(range(0, len(A), DIMENSION), _below(rng, 2 * NOISE + 1, SAMPLES)):
        a, packed = A[k:k + DIMENSION], 0
        for a_j in reversed(a):
            packed = packed << width | a_j
        b = (sum(a_j * s_j for a_j, s_j in zip(a, s)) + e - NOISE) % Q
        rows.append(packed << width | b)
    rows = tuple(rows)
    tables = tuple(_subset_sums(rows[k:k + WINDOW]) for k in range(0, SAMPLES, WINDOW))
    pk = KeyMaterial("public", params, (rows, tables))
    sk = KeyMaterial("full", params, (rows, tables, params._slots.sign_masks(s), s))
    return pk, sk


def _below(rng: random.Random, n: int, count: int) -> list:
    """`count` draws of rng.randrange(n) in order, as `random` makes them:
    getrandbits(k) for k the bit length of n, until one is below n.
    rng.randint(a, b) is a plus a draw below b - a + 1."""
    bits, k, out = rng.getrandbits, n.bit_length(), []
    for _ in range(count):
        x = bits(k)
        while x >= n:
            x = bits(k)
        out.append(x)
    return out


def _subset_sums(rows) -> tuple:
    """Entry b is the sum of the rows i for which bit i of b is set."""
    sums = [0]
    for row in rows:
        sums += [x + row for x in sums]
    return tuple(sums)


def _check_plain(v: Sequence[int], q: int):
    for x in v:
        if not isinstance(x, int) or not (0 <= x < q):
            raise OutOfRangeError(f"plaintext entry {x!r} outside Z_{q}")


def encrypt(pk: KeyMaterial, v: Sequence[int], rng: Optional[random.Random] = None) -> Ciphertext:
    params = pk.params
    _check_plain(v, params.q)
    if params.backend == "mock":
        return Ciphertext(params, len(v), tuple(v), noise_bound=0)
    rng = rng if rng is not None else random.Random()
    delta, tables, reduce = params.delta, pk.payload[1], params._slots.reduce
    low = (1 << WINDOW) - 1
    payload = []
    for x in v:
        # bit i of `bits` puts public-key row i into the sum
        bits, entry = rng.getrandbits(SAMPLES), delta * x
        for table in tables:
            entry += table[bits & low]
            bits >>= WINDOW
        payload.append(reduce(entry))
    return Ciphertext(params, len(v), tuple(payload), noise_bound=FRESH_NOISE_BOUND)


def decrypt(sk: KeyMaterial, ct: Ciphertext) -> Tuple[int, ...]:
    sk.require_full()
    params = ct.params
    if params != sk.params:
        raise DimensionMismatchError("key/ciphertext scheme mismatch")
    if params.backend == "mock":
        return tuple(ct.payload)
    if ct.noise_bound is None:
        raise NoiseOverflowError("no noise bound covers this ciphertext; "
                                 "decryption could be ambiguous")
    check_budget(params, ct.noise_bound)
    Q, delta = params.ct_modulus, params.delta
    # c - <a, s> = c + (a_j over s_j = -1) + (Q - a_j over s_j = +1) mod Q,
    # 17 slot values in [0, Q], summed in one fold
    (plus, minus, q_minus), fold = sk.payload[2], params._slots.fold
    pad, half, q = params.lattice.pad_bits, delta // 2, params.q
    return tuple(((fold((e & plus) + (q_minus - (e & minus))) % Q + half) >> pad) % q
                 for e in ct.payload)


def add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    params = c1.params
    if params is not c2.params and params != c2.params:
        raise DimensionMismatchError("ciphertexts from different schemes")
    if c1.dim != c2.dim:
        raise DimensionMismatchError(f"dimension {c1.dim} vs {c2.dim}")
    reduce = slot_reduction(params)[0]
    payload = tuple(reduce(x + y) for x, y in zip(c1.payload, c2.payload))
    bounds = (c1.noise_bound, c2.noise_bound)
    return Ciphertext(params, c1.dim, payload,
                      noise_bound=None if None in bounds else sum(bounds))


def slot_reduction(params: SchemeParams) -> tuple:
    """(reduce, limit) for a kernel over the payloads of ciphertexts under
    `params` (`kernel.Source`): `reduce` maps an entry to its canonical
    payload, and takes any entry whose magnitude is bounded by `limit` in
    units of the modulus, the bound of a canonical entry being 1.  On the
    lattice backend that is `_Slots.reduce`, whose slots must stay below
    2^(W-1) in magnitude, and a canonical slot lies below Q; on the mock
    backend `% q`, which takes any integer, so only outputs need it (limit
    None)."""
    if params.backend == "mock":
        return params.q.__rmod__, None
    slots = params._slots
    return slots.reduce, slots.half // slots.Q


def check_budget(params: SchemeParams, bound: int):
    """Raises `NoiseOverflowError` if the noise bound of what `decrypt`
    decrypts reaches half of Delta, the budget decryption needs.  The mock
    backend has none."""
    if params.backend == "lattice" and bound >= params.delta // 2:
        raise NoiseOverflowError(
            f"noise bound 2^{bound.bit_length()} exceeds half-Delta "
            f"2^{params.lattice.pad_bits - 1}; decryption would be ambiguous"
        )


def check_product(params: SchemeParams, M: "PlainMatrix"):
    """Raises `DimensionMismatchError` unless ciphertexts under `params`
    admit a product by M: M prepared under their q and, on the lattice
    backend, at most 2^GUARD columns, the most a packed slot sums without
    overflow."""
    if M.q != params.q:
        raise DimensionMismatchError(f"matrix prepared mod {M.q}, ciphertext mod {params.q}")
    if params.backend == "lattice" and M.cols > 1 << GUARD:
        raise DimensionMismatchError(
            f"{M.cols} columns exceed the {1 << GUARD} a packed slot holds")


class PlainMatrix:
    """An integer matrix prepared once for `plain_matmul` under plaintext
    modulus q: its rows with every entry replaced by its centered residue
    mod q, m in (-q/2, q/2], which decrypts the same and is the value a
    product multiplies by; and `weight`, the factor `plain_matmul`
    multiplies a noise bound by: the largest absolute row sum of those
    residues.  A matrix of no rows has 0 columns and weight 0."""

    def __init__(self, M: Sequence[Sequence[int]], q: int):
        self.q, self.cols = q, len(M[0]) if M else 0
        if any(len(row) != self.cols for row in M):
            raise DimensionMismatchError("matrix rows differ in length")
        half = q // 2
        self.rows = tuple(tuple(m - q if m > half else m for m in (x % q for x in row))
                          for row in M)
        self.weight = max((sum(map(abs, row)) for row in self.rows), default=0)


def plain_matmul(M: PlainMatrix, ct: Ciphertext) -> Ciphertext:
    """M v mod q, by the product rule (module docstring), for a `PlainMatrix`
    M with one column per entry of v; the noise bound is multiplied by M's
    weight."""
    params = ct.params
    check_product(params, M)
    if M.cols != ct.dim:
        raise DimensionMismatchError("matrix columns must match ciphertext dimension")
    noise = None if ct.noise_bound is None else ct.noise_bound * M.weight
    reduce = slot_reduction(params)[0]
    payload = tuple([reduce(sum(m * x for m, x in zip(row, ct.payload))) for row in M.rows])
    return Ciphertext(params, len(M.rows), payload, noise_bound=noise)


class NoiseReport(Record, frozen=True):
    """Remaining-operation estimate.  headroom > 0 guarantees exact decryption,
    headroom < 0 guarantees refusal; 0 is the boundary bit.  Infinite on the
    mock backend; without a noise bound, the bound is infinite and the
    headroom minus infinity."""

    noise_bound_log2: float
    budget_log2: float
    headroom_log2: float


def noise_report(ct: Ciphertext) -> NoiseReport:
    if ct.params.backend == "mock":
        return NoiseReport(0.0, float("inf"), float("inf"))
    budget = float(ct.params.lattice.pad_bits - 1)
    nb = float("inf") if ct.noise_bound is None else float(ct.noise_bound.bit_length())
    return NoiseReport(nb, budget, budget - nb)

