"""Additively homomorphic encryption over the message space Z_q^n.

Two interchangeable backends:

* ``mock`` -- a transparent mod-q vector carried behind the ciphertext type.
  Bit-deterministic, unbounded horizon; the workhorse for long correctness
  runs where the crypto itself is not under test.

* ``lattice`` -- a Regev-style public-key LWE scheme whose plaintext space
  is natively Z_q (ciphertext modulus Q = q * 2^pad, messages scaled by
  Delta = 2^pad).  Sums and integer-matrix products of plaintexts wrap mod q
  for free.  Noise is tracked per ciphertext with a conservative budget
  model (additive for sums, absolute-row-sum weighted for matrix products)
  so decryption ambiguity is predicted, not discovered.

The LWE dimensions are constants (`DIMENSION`, `SAMPLES`, `NOISE`), so a
fresh ciphertext's noise bound is `FRESH_NOISE_BOUND` in every run; the pad
(`LatticeParams.pad_bits`) is the only per-run setting.

Packed slots.  A lattice ciphertext entry (a_1..a_16, c) is one Python int:
slot 0 holds c and slot j holds a_j, each slot W = bits(Q) + bits(q) + GUARD
bits wide.  Every public-key row is packed the same way, so `encrypt` sums
packed rows, `add` adds two ints, `plain_matmul` accumulates m * entry over a
row (m the centered residue of the matrix entry mod q, |m| <= q/2, prepared
once per matrix by `PlainMatrix`), and only `decrypt` unpacks.  Slots may go
negative in between; a row of at most 2^GUARD columns keeps every slot below
2^(W-1) in magnitude, so no borrow or carry crosses a slot boundary once the
offset 2^(W-1) is added to each slot.
The reduction mod Q then is one AND with Q-1 per slot when Q is a power of
two (every q the planner makes), and slot by slot otherwise.

The secret is drawn from {-1, 0, 1}^16, a standard LWE variant (Applebaum,
Cash, Peikert, Sahai, CRYPTO 2009), so decryption's inner product multiplies
no Q-sized numbers.  Parameters are sized for exactness, not for conjectured
security; this is a simulation artifact, not a hardened cryptosystem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple


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
# A packed entry has one slot for c and one per a_j; the GUARD bits above
# bits(Q) + bits(q) let `plain_matmul` sum up to 2^GUARD columns in a slot.
SLOTS, GUARD = DIMENSION + 1, 8


@dataclass(frozen=True)
class LatticeParams:
    """pad_bits of headroom above the plaintext: Delta = 2^pad_bits."""

    pad_bits: int

    def __post_init__(self):
        if self.pad_bits < 1:
            raise BadParamsError("pad_bits must be positive")


@dataclass(frozen=True)
class SchemeParams:
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


@dataclass(frozen=True)
class KeyMaterial:
    role: str  # "public" | "full"
    params: SchemeParams
    payload: tuple = ()

    def require_full(self):
        if self.role != "full":
            raise WrongKeyRoleError("decryption requires the full key")


@dataclass
class Ciphertext:
    """Opaque encrypted vector (one packed int per entry on the lattice
    backend); the noise bound only grows."""

    params: SchemeParams
    dim: int
    payload: tuple
    noise_bound: int = 0

    def _compatible(self, other: "Ciphertext"):
        if self.params is not other.params and self.params != other.params:
            raise DimensionMismatchError("ciphertexts from different schemes")
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dimension {self.dim} vs {other.dim}")


def keygen(params: SchemeParams, seed: Optional[int] = None):
    """Returns (public KeyMaterial, full KeyMaterial); deterministic under a seed.
    On the lattice backend the public key holds the SAMPLES packed rows
    (a_i, b_i = <a_i, s> + e_i mod Q), and the full key also the secret s."""
    if params.backend == "mock":
        pk = KeyMaterial("public", params)
        sk = KeyMaterial("full", params)
        return pk, sk
    rng = random.Random(seed)
    Q = params.ct_modulus
    s = tuple(rng.randint(-1, 1) for _ in range(DIMENSION))
    A = [[rng.randrange(Q) for _ in range(DIMENSION)] for _ in range(SAMPLES)]
    rows = tuple(
        params._slots.pack([(sum(a_j * s_j for a_j, s_j in zip(a, s))
                             + rng.randint(-NOISE, NOISE)) % Q, *a])
        for a in A
    )
    pk = KeyMaterial("public", params, (rows,))
    sk = KeyMaterial("full", params, (rows, s))
    return pk, sk


def _check_plain(v: Sequence[int], q: int):
    for x in v:
        if not isinstance(x, int) or not (0 <= x < q):
            raise OutOfRangeError(f"plaintext entry {x!r} outside Z_{q}")


def encrypt(pk: KeyMaterial, v: Sequence[int], rng: Optional[random.Random] = None) -> Ciphertext:
    params = pk.params
    _check_plain(v, params.q)
    if params.backend == "mock":
        return Ciphertext(params, len(v), tuple(v))
    rng = rng if rng is not None else random.Random()
    delta, rows, reduce = params.delta, pk.payload[0], params._slots.reduce
    payload = tuple(
        reduce(delta * x + sum(row for row in rows if rng.getrandbits(1)))
        for x in v
    )
    return Ciphertext(params, len(v), payload, noise_bound=FRESH_NOISE_BOUND)


def decrypt(sk: KeyMaterial, ct: Ciphertext) -> Tuple[int, ...]:
    sk.require_full()
    params = ct.params
    if params != sk.params:
        raise DimensionMismatchError("key/ciphertext scheme mismatch")
    if params.backend == "mock":
        return tuple(ct.payload)
    Q, delta = params.ct_modulus, params.delta
    if ct.noise_bound >= delta // 2:
        raise NoiseOverflowError(
            f"noise bound 2^{ct.noise_bound.bit_length()} exceeds half-Delta "
            f"2^{params.lattice.pad_bits - 1}; decryption would be ambiguous"
        )
    s, unpack = sk.payload[1], params._slots.unpack
    out = []
    for packed in ct.payload:
        c, *a = unpack(packed)
        d = (c - sum(a_j * s_j for a_j, s_j in zip(a, s))) % Q
        out.append(((d + delta // 2) // delta) % params.q)
    return tuple(out)


def add(c1: Ciphertext, c2: Ciphertext) -> Ciphertext:
    c1._compatible(c2)
    params = c1.params
    if params.backend == "mock":
        payload = tuple((x + y) % params.q for x, y in zip(c1.payload, c2.payload))
    else:
        reduce = params._slots.reduce
        payload = tuple(reduce(x + y) for x, y in zip(c1.payload, c2.payload))
    return Ciphertext(params, c1.dim, payload,
                      noise_bound=c1.noise_bound + c2.noise_bound)


class PlainMatrix:
    """An integer matrix prepared once for `plain_matmul` under plaintext
    modulus q: each row as (column, m) pairs, m the centered residue of the
    entry mod q (|m| <= q/2), zero residues dropped; and `weight`, the factor
    `plain_matmul` multiplies a noise bound by: the largest absolute row sum
    of the entries as given, so centered entries give the smallest."""

    def __init__(self, M: Sequence[Sequence[int]], q: int):
        if not M:
            raise DimensionMismatchError("empty matrix")
        self.q, self.cols = q, len(M[0])
        if any(len(row) != self.cols for row in M):
            raise DimensionMismatchError("matrix rows differ in length")
        self.weight = max(sum(abs(x) for x in row) for row in M)
        half = q // 2
        self.rows = tuple(
            tuple((j, m - q if m > half else m) for j, x in enumerate(row) if (m := x % q))
            for row in M)


def plain_matmul(M, ct: Ciphertext) -> Ciphertext:
    """M is a `PlainMatrix` under the ciphertext's q, or a list of integer
    rows of either sign, prepared here; decrypts to M v mod q, with the noise
    bound multiplied by M's weight.  The lattice backend takes at most
    2^GUARD columns."""
    params = ct.params
    if not isinstance(M, PlainMatrix):
        M = PlainMatrix(M, params.q)
    elif M.q != params.q:
        raise DimensionMismatchError(f"matrix prepared mod {M.q}, ciphertext mod {params.q}")
    if M.cols != ct.dim:
        raise DimensionMismatchError("matrix columns must match ciphertext dimension")
    noise = ct.noise_bound * M.weight
    v = ct.payload
    if params.backend == "mock":
        payload = tuple(sum(m * v[j] for j, m in row) % params.q for row in M.rows)
    else:
        if noise >= params.delta // 2:
            raise NoiseOverflowError(
                "matrix product pushes the noise bound past the declared budget"
            )
        if ct.dim > 1 << GUARD:
            raise DimensionMismatchError(
                f"{ct.dim} columns exceed the {1 << GUARD} a packed slot holds")
        reduce = params._slots.reduce
        payload = tuple(reduce(sum(m * v[j] for j, m in row)) for row in M.rows)
    return Ciphertext(params, len(M.rows), payload, noise_bound=noise)


@dataclass(frozen=True)
class NoiseReport:
    """Remaining-operation estimate.  headroom > 0 guarantees exact decryption,
    headroom < 0 guarantees refusal; 0 is the boundary bit.  Infinite on the
    mock backend."""

    noise_bound_log2: float
    budget_log2: float
    headroom_log2: float


def noise_report(ct: Ciphertext) -> NoiseReport:
    if ct.params.backend == "mock":
        return NoiseReport(0.0, float("inf"), float("inf"))
    budget = float(ct.params.lattice.pad_bits - 1)
    nb = float(ct.noise_bound.bit_length())
    return NoiseReport(nb, budget, budget - nb)

