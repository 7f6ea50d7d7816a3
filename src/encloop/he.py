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
  Delta/2 or refuses: decryption ambiguity is predicted, not
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
The reduction mod Q (`_Slots.reduce`) then is one AND with Q-1 per slot
when Q is a power of two (every q the planner makes), and slot by slot
otherwise.  A kernel compiled over packed payloads (`kernel.Source`)
chains products and sums before it reduces; `slot_reduction` gives it the
reduction as a source form, inline where Q is a power of two, and the
largest slot magnitude, in units of Q, that the form accepts.

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
(`_Slots.folds`) sum them into slot 0: the total is below 17 Q < 2^W, so no
partial sum carries into the next slot.  The result is reduced mod Q and
rounded with a shift by the pad.  Parameters are sized for exactness, not
for conjectured security; this is a simulation artifact, not a hardened
cryptosystem.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import compress
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

    @cached_property
    def _slots(self) -> "_Slots":
        return _Slots(self.q, self.lattice.pad_bits)


class _Slots:
    """The packed layout of a lattice ciphertext entry under one (q, pad),
    and the constants `encrypt` and `decrypt` read: Q, Delta and the noise
    budget Delta/2."""

    def __init__(self, q: int, pad: int):
        Q = self.Q = q << pad
        self.q, self.pad, self.delta, self.half_delta = q, pad, 1 << pad, 1 << (pad - 1)
        self.width = w = Q.bit_length() + q.bit_length() + GUARD
        self.half = 1 << (w - 1)
        self.offset = self.pack([self.half] * SLOTS)
        self.mask = self.pack([Q - 1] * SLOTS) if Q & (Q - 1) == 0 else None
        # the folds of `decrypt`: each (shift, mask) adds the upper slots onto
        # the lower ones and halves the slots left, until slot 0 holds the sum
        # of all; no partial sum carries while the slots sum below 2^W
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


class KeyMaterial(Record, frozen=True):
    role: str  # "public" | "full"
    params: SchemeParams
    payload: tuple = ()


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
    plus, minus = [s_j == 1 for s_j in s], [s_j == -1 for s_j in s]
    A = _below(rng, Q, SAMPLES * DIMENSION)
    rows = []
    for k, e in zip(range(0, len(A), DIMENSION), _below(rng, 2 * NOISE + 1, SAMPLES)):
        a, packed = A[k:k + DIMENSION], 0
        for a_j in reversed(a):
            packed = packed << width | a_j
        # <a, s>: the a_j over s_j = +1 less those over s_j = -1
        b = (sum(compress(a, plus)) - sum(compress(a, minus)) + e - NOISE) % Q
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


def encrypt(pk: KeyMaterial, v: Sequence[int], rng: Optional[random.Random] = None) -> Ciphertext:
    """v encrypted under `pk` with randomness from `rng` (a new one if None);
    an entry that is no integer in [0, q) raises `OutOfRangeError` before
    any draw.  On lattice each entry is Delta x plus the table entries its
    draw chooses, whose slots lie in [0, 49 Q), below 2^(W-1): where Q is
    a power of two one AND reduces it as `_Slots.reduce` does."""
    params = pk.params
    q = params.q
    for x in v:
        if not isinstance(x, int) or not 0 <= x < q:
            raise OutOfRangeError(f"plaintext entry {x!r} outside Z_{q}")
    if params.backend == "mock":
        return Ciphertext(params, len(v), tuple(v), noise_bound=0)
    draw = (rng if rng is not None else random.Random()).getrandbits
    slots = params._slots
    delta, mask, reduce = slots.delta, slots.mask, slots.reduce
    # one table per window of WINDOW = 4 rows; bit i of b puts row i into the sum
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11 = pk.payload[1]
    payload = []
    for x in v:
        b = draw(SAMPLES)
        e = (delta * x + t0[b & 15] + t1[b >> 4 & 15] + t2[b >> 8 & 15] + t3[b >> 12 & 15]
             + t4[b >> 16 & 15] + t5[b >> 20 & 15] + t6[b >> 24 & 15] + t7[b >> 28 & 15]
             + t8[b >> 32 & 15] + t9[b >> 36 & 15] + t10[b >> 40 & 15] + t11[b >> 44])
        payload.append(e & mask if mask is not None else reduce(e))
    return Ciphertext(params, len(v), tuple(payload), noise_bound=FRESH_NOISE_BOUND)


def decrypt(sk: KeyMaterial, ct: Ciphertext) -> Tuple[int, ...]:
    """The plaintext of `ct` under the full key `sk`.  Refuses a public key
    (`WrongKeyRoleError`), another scheme (`DimensionMismatchError`) and,
    on lattice, a noise bound that is None or reaches Delta/2, the budget
    of an unambiguous decryption (`NoiseOverflowError`)."""
    if sk.role != "full":
        raise WrongKeyRoleError("decryption requires the full key")
    params = ct.params
    if params is not sk.params and params != sk.params:
        raise DimensionMismatchError("key/ciphertext scheme mismatch")
    if params.backend == "mock":
        return tuple(ct.payload)
    bound, slots = ct.noise_bound, params._slots
    if bound is None:
        raise NoiseOverflowError("no noise bound covers this ciphertext; "
                                 "decryption could be ambiguous")
    if bound >= slots.half_delta:
        raise NoiseOverflowError(f"noise bound 2^{bound.bit_length()} exceeds half-Delta "
                                 f"2^{slots.pad - 1}; decryption would be ambiguous")
    Q, half, pad, q, folds = slots.Q, slots.half_delta, slots.pad, slots.q, slots.folds
    # c - <a, s> = c + (a_j over s_j = -1) + (Q - a_j over s_j = +1) mod Q:
    # 17 slot values in [0, Q], summed into slot 0 by the folds
    plus, minus, q_minus = sk.payload[2]
    out = []
    for e in ct.payload:
        e = (e & plus) + (q_minus - (e & minus))
        for shift, low in folds:
            e = (e & low) + (e >> shift)
        out.append(((e % Q + half) >> pad) % q)
    return tuple(out)


def add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    params = c1.params
    if params is not c2.params and params != c2.params:
        raise DimensionMismatchError("ciphertexts from different schemes")
    if c1.dim != c2.dim:
        raise DimensionMismatchError(f"dimension {c1.dim} vs {c2.dim}")
    reduce = params._slots.reduce if params.backend == "lattice" else params.q.__rmod__
    payload = tuple(reduce(x + y) for x, y in zip(c1.payload, c2.payload))
    bounds = (c1.noise_bound, c2.noise_bound)
    return Ciphertext(params, c1.dim, payload,
                      noise_bound=None if None in bounds else sum(bounds))


def slot_reduction(params: SchemeParams) -> tuple:
    """(form, constants, limit) for a kernel over the payloads of ciphertexts
    under `params` (`kernel.Source`): `form.format(x)`, over the names
    `constants` binds, is the canonical payload of any entry x whose
    magnitude is bounded by `limit` in units of the modulus, that of a
    canonical entry being 1.  On lattice it is `_Slots.reduce`, whose slots
    must stay below 2^(W-1) in magnitude: inline, `x + OFFSET & MASK`, where
    Q is a power of two, else a call.  On mock it is `x % Q` with Q = q,
    which takes any integer, so only outputs need it (limit None)."""
    if params.backend == "mock":
        return "{} % Q", {"Q": params.q}, None
    slots = params._slots
    limit = slots.half // slots.Q
    if slots.mask is None:
        return "reduce({})", {"reduce": slots.reduce}, limit
    return "{} + OFFSET & MASK", {"OFFSET": slots.offset, "MASK": slots.mask}, limit


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
    reduce = params._slots.reduce if params.backend == "lattice" else params.q.__rmod__
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

