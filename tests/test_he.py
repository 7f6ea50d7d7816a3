import random

import pytest

from encloop import he

Q41 = 2**41


def make_scheme(backend, q=Q41, pad=64):
    if backend == "mock":
        return he.SchemeParams.mock(q)
    return he.SchemeParams(q=q, backend="lattice",
                           lattice=he.LatticeParams(pad_bits=pad))


@pytest.fixture(params=["mock", "lattice"])
def scheme(request):
    return make_scheme(request.param)


@pytest.fixture
def keys(scheme):
    return he.keygen(scheme, seed=42)


def test_roundtrip_zero_and_wrap_boundary(scheme, keys):
    pk, sk = keys
    rng = random.Random(0)
    for v in ([0, 0, 0], [scheme.q - 1, 0, scheme.q - 1]):
        assert he.decrypt(sk, he.encrypt(pk, v, rng)) == tuple(v)


def test_roundtrip_random(scheme, keys):
    pk, sk = keys
    rng = random.Random(1)
    for _ in range(200):
        v = [rng.randrange(scheme.q) for _ in range(rng.randint(1, 4))]
        assert he.decrypt(sk, he.encrypt(pk, v, rng)) == tuple(v)


def test_add_wraps_mod_q(scheme, keys):
    pk, sk = keys
    rng = random.Random(2)
    c1 = he.encrypt(pk, [1], rng)
    c2 = he.encrypt(pk, [scheme.q - 1], rng)
    assert he.decrypt(sk, he.add(c1, c2)) == (0,)


def test_add_identity_and_random_pairs(scheme, keys):
    pk, sk = keys
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 3)
        p1 = [rng.randrange(scheme.q) for _ in range(n)]
        p2 = [rng.randrange(scheme.q) for _ in range(n)]
        got = he.decrypt(sk, he.add(he.encrypt(pk, p1, rng), he.encrypt(pk, p2, rng)))
        assert got == tuple((a + b) % scheme.q for a, b in zip(p1, p2))
    c = he.encrypt(pk, [5, 6], rng)
    z = he.encrypt(pk, [0, 0], rng)
    assert he.decrypt(sk, he.add(c, z)) == (5, 6)


def test_plain_matmul_identity_zero_random(scheme, keys):
    pk, sk = keys
    rng = random.Random(4)
    v = [7, 9, 11]
    c = he.encrypt(pk, v, rng)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert he.decrypt(sk, he.plain_matmul(eye, c)) == tuple(v)
    zero = [[0] * 3 for _ in range(2)]
    assert he.decrypt(sk, he.plain_matmul(zero, c)) == (0, 0)
    for _ in range(50):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        M = [[rng.randrange(scheme.q) for _ in range(n)] for _ in range(m)]
        p = [rng.randrange(scheme.q) for _ in range(n)]
        got = he.decrypt(sk, he.plain_matmul(M, he.encrypt(pk, p, rng)))
        want = tuple(sum(a * b for a, b in zip(row, p)) % scheme.q for row in M)
        assert got == want


def test_plain_matmul_centered_entries(scheme, keys):
    """Negative entries decrypt like their [0, q) residues, and the lattice
    noise bound charges the row sums of the entries as given."""
    pk, sk = keys
    rng = random.Random(14)
    c = he.encrypt(pk, [3, scheme.q - 5, 12345], rng)
    M = [[-1, 2, -3], [-(scheme.q // 2) + 1, 0, 7]]
    reduced = [[x % scheme.q for x in row] for row in M]
    got = he.plain_matmul(M, c)
    assert he.decrypt(sk, got) == he.decrypt(sk, he.plain_matmul(reduced, c))
    assert got.noise_bound == c.noise_bound * (scheme.q // 2 + 6)
    assert he.plain_matmul([[-1, 2, -3]], c).noise_bound == c.noise_bound * 6


def test_dimension_mismatch(scheme, keys):
    pk, sk = keys
    rng = random.Random(5)
    c1 = he.encrypt(pk, [1, 2], rng)
    c2 = he.encrypt(pk, [1], rng)
    with pytest.raises(he.DimensionMismatchError):
        he.add(c1, c2)
    with pytest.raises(he.DimensionMismatchError):
        he.plain_matmul([[1, 2, 3]], c1)
    # a matrix prepared under another plaintext modulus
    with pytest.raises(he.DimensionMismatchError):
        he.plain_matmul(he.PlainMatrix([[1, 2]], scheme.q + 1), c1)


def test_out_of_range_rejected(scheme, keys):
    pk, _ = keys
    with pytest.raises(he.OutOfRangeError):
        he.encrypt(pk, [scheme.q])
    with pytest.raises(he.OutOfRangeError):
        he.encrypt(pk, [-1])


def test_public_key_cannot_decrypt(scheme, keys):
    pk, _ = keys
    c = he.encrypt(pk, [1], random.Random(6))
    with pytest.raises(he.WrongKeyRoleError):
        he.decrypt(pk, c)


def test_keygen_deterministic_under_seed():
    params = make_scheme("lattice")
    a = he.keygen(params, seed=7)
    b = he.keygen(params, seed=7)
    assert a[1].payload == b[1].payload
    c = he.keygen(params, seed=8)
    assert c[1].payload != a[1].payload


def test_lattice_ciphertexts_randomized():
    params = make_scheme("lattice")
    pk, _ = he.keygen(params, seed=9)
    rng = random.Random(10)
    seen = {he.encrypt(pk, [3], rng).payload for _ in range(100)}
    assert len(seen) == 100


def test_mock_bit_deterministic():
    params = make_scheme("mock")
    pk, sk = he.keygen(params, seed=0)
    c1 = he.encrypt(pk, [5, 7])
    c2 = he.encrypt(pk, [5, 7])
    assert c1.payload == c2.payload


def test_op_metadata_monotone(scheme, keys):
    pk, _ = keys
    rng = random.Random(11)
    c = he.encrypt(pk, [1, 2], rng)
    d = he.add(c, c)
    e = he.plain_matmul([[1, 1], [0, 1]], d)
    assert e.noise_bound >= d.noise_bound >= 0


def test_declared_budget_of_thousand_adds():
    # q = 2^41 with 10^3 additions stays within a budget sized for it
    params = make_scheme("lattice", pad=26)
    pk, sk = he.keygen(params, seed=12)
    rng = random.Random(12)
    acc = he.encrypt(pk, [1], rng)
    for _ in range(999):
        acc = he.add(acc, he.encrypt(pk, [1], rng))
    assert he.noise_report(acc).headroom_log2 > 0
    assert he.decrypt(sk, acc) == (1000 % Q41,)


def test_noise_overflow_predicted_and_raised():
    params = make_scheme("lattice", q=2**10, pad=16)
    pk, sk = he.keygen(params, seed=13)
    rng = random.Random(13)
    # additions alone can exhaust the budget; negative headroom predicts refusal
    c = he.encrypt(pk, [1], rng)
    while he.noise_report(c).headroom_log2 >= 0:
        c = he.add(c, c)
    with pytest.raises(he.NoiseOverflowError):
        he.decrypt(sk, c)
    # a heavy plaintext weight trips the budget check at the operation itself
    fresh = he.encrypt(pk, [1], rng)
    with pytest.raises(he.NoiseOverflowError):
        he.plain_matmul([[2**12]], fresh)


def test_bad_params_rejected():
    with pytest.raises(he.BadParamsError):
        he.SchemeParams(q=1)
    with pytest.raises(he.BadParamsError):
        he.SchemeParams(q=8, backend="nope")
    with pytest.raises(he.BadParamsError):
        he.SchemeParams(q=8, backend="lattice")
    with pytest.raises(he.BadParamsError):
        he.LatticeParams(pad_bits=0)


def _backends(q, pad, seed=21):
    """(pk, sk) on mock and on lattice for one plaintext modulus."""
    return [he.keygen(make_scheme(b, q=q, pad=pad), seed=seed) for b in ("mock", "lattice")]


@pytest.mark.parametrize("q", [Q41, Q41 + 12345], ids=["power-of-two", "slot-by-slot"])
def test_packed_kernels_match_mock_at_extreme_entries(q):
    """Entries of +-(q-1), +-q/2 and 0, and an `add` that wraps at
    (q-1) + (q-1), decrypt on lattice as on mock, whether Q = q * 2^pad is a
    power of two (one mask reduces every slot) or not (slot by slot)."""
    v = [q - 1, q // 2, 0, 1]
    M = [[q - 1, -(q - 1), q // 2, -(q // 2)],
         [-(q // 2), q // 2, 0, q - 1],
         [0, 0, 0, 0]]
    results = []
    for pk, sk in _backends(q, pad=64):
        rng = random.Random(15)
        c1, c2 = he.encrypt(pk, v, rng), he.encrypt(pk, v, rng)
        results.append((he.decrypt(sk, he.plain_matmul(M, c1)),
                        he.decrypt(sk, he.add(c1, c2)),
                        he.decrypt(sk, he.plain_matmul(M, he.add(c1, c2)))))
    mock, lattice = results
    assert lattice == mock
    assert mock[1] == tuple(2 * x % q for x in v)
    assert mock[1][0] == q - 2


@pytest.mark.parametrize("q", [2**12, 2**12 + 1], ids=["power-of-two", "slot-by-slot"])
def test_widest_matrix_the_guard_accepts(q):
    """A row of 2^GUARD columns, each at the largest centered magnitude,
    decrypts as on mock, also over the largest slots a ciphertext holds; one
    column more is refused."""
    n = 1 << he.GUARD
    # the last row is q/2 once centered, but larger as given
    M = [[q // 2] * n, [-(q // 2 - 1)] * n, [q // 2, -(q // 2)] * (n // 2),
         [q // 2 + 16 * q] * n]
    v = [q - 1] * n
    results = []
    for pk, sk in _backends(q, pad=36):
        rng = random.Random(16)
        results.append(he.decrypt(sk, he.plain_matmul(M, he.encrypt(pk, v, rng))))
    assert results[1] == results[0]
    assert results[0] == tuple(sum(m * x for m, x in zip(row, v)) % q for row in M)
    # the largest slots: every component Q - 1, an encryption of 0 whose noise
    # (the secret's sum less 1) is below the fresh bound
    pk, sk = _backends(q, pad=36)[1]
    params = pk.params
    top = params._slots.pack([params.ct_modulus - 1] * he.SLOTS)
    worst = he.Ciphertext(params, n, (top,) * n, noise_bound=he.FRESH_NOISE_BOUND)
    assert he.decrypt(sk, he.plain_matmul(M, worst)) == (0,) * len(M)
    wide = he.encrypt(pk, [1] * (n + 1), random.Random(17))
    with pytest.raises(he.DimensionMismatchError):
        he.plain_matmul([[1] * (n + 1)], wide)


def test_secret_is_ternary():
    params = make_scheme("lattice")
    seen = set()
    for seed in range(4):
        s = he.keygen(params, seed=seed)[1].payload[-1]
        assert len(s) == he.DIMENSION
        seen |= set(s)
    assert seen == {-1, 0, 1}
