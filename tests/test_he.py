import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encloop import he, kernel

from rings import function

Q41 = 2**41


def make_scheme(backend, q=Q41, pad=64):
    if backend == "mock":
        return he.SchemeParams.mock(q)
    return he.SchemeParams(q=q, backend="lattice",
                           lattice=he.LatticeParams(pad_bits=pad))


def matmul(M, ct):
    """`he.plain_matmul` of integer rows, prepared under the ciphertext's q."""
    return he.plain_matmul(he.PlainMatrix(M, ct.params.q), ct)


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
    assert he.decrypt(sk, matmul(eye, c)) == tuple(v)
    zero = [[0] * 3 for _ in range(2)]
    assert he.decrypt(sk, matmul(zero, c)) == (0, 0)
    for _ in range(50):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        M = [[rng.randrange(scheme.q) for _ in range(n)] for _ in range(m)]
        p = [rng.randrange(scheme.q) for _ in range(n)]
        got = he.decrypt(sk, matmul(M, he.encrypt(pk, p, rng)))
        want = tuple(sum(a * b for a, b in zip(row, p)) % scheme.q for row in M)
        assert got == want


def test_plain_matmul_centered_entries(scheme, keys):
    """Negative entries decrypt like their [0, q) residues, and the lattice
    noise bound charges the row sums of the centered entries."""
    pk, sk = keys
    rng = random.Random(14)
    c = he.encrypt(pk, [3, scheme.q - 5, 12345], rng)
    M = [[-1, 2, -3], [-(scheme.q // 2) + 1, 0, 7]]
    reduced = [[x % scheme.q for x in row] for row in M]
    got = matmul(M, c)
    assert he.decrypt(sk, got) == he.decrypt(sk, matmul(reduced, c))
    assert got.noise_bound == c.noise_bound * (scheme.q // 2 + 6)
    assert matmul([[-1, 2, -3]], c).noise_bound == c.noise_bound * 6


def test_weight_is_the_row_sum_of_centered_entries():
    """A product multiplies by the centered residues, so the noise weight is
    their largest absolute row sum, not that of the entries as given."""
    assert he.PlainMatrix([[2**12, 3]], 2**10).weight == 3
    for q in (10, 2**10, 2**65 + 1):
        assert he.PlainMatrix([[q - 1]], q).weight == 1
        assert he.PlainMatrix([[q // 2 + q, -(q - 1)]], q).weight == q // 2 + 1


def test_dimension_mismatch(scheme, keys):
    pk, sk = keys
    rng = random.Random(5)
    c1 = he.encrypt(pk, [1, 2], rng)
    c2 = he.encrypt(pk, [1], rng)
    with pytest.raises(he.DimensionMismatchError):
        he.add(c1, c2)
    with pytest.raises(he.DimensionMismatchError):
        matmul([[1, 2, 3]], c1)
    # a matrix prepared under another plaintext modulus
    with pytest.raises(he.DimensionMismatchError):
        he.plain_matmul(he.PlainMatrix([[1, 2]], scheme.q + 1), c1)


def test_decrypt_refuses_a_key_of_other_parameters(scheme, keys):
    pk, _ = keys
    ct = he.encrypt(pk, [1, 2], random.Random(5))
    _, other = he.keygen(make_scheme(scheme.backend, q=scheme.q // 2), seed=42)
    with pytest.raises(he.DimensionMismatchError, match="scheme mismatch"):
        he.decrypt(other, ct)


def test_plain_matrix_shapes():
    """Ragged rows are refused; a matrix of no rows has 0 columns and weight 0."""
    with pytest.raises(he.DimensionMismatchError, match="rows differ in length"):
        he.PlainMatrix([[1, 2], [3]], 8)
    empty = he.PlainMatrix([], 8)
    assert (empty.rows, empty.cols, empty.weight) == ((), 0, 0)


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


def _reference_keygen(params, seed):
    """The full key as `random`'s own draws make it: s by `randint`, then
    every entry of A by `randrange`, then the noises, each row packed by
    `_Slots.pack`."""
    rng, Q, slots = random.Random(seed), params.ct_modulus, params._slots
    s = tuple(rng.randint(-1, 1) for _ in range(he.DIMENSION))
    A = [[rng.randrange(Q) for _ in range(he.DIMENSION)] for _ in range(he.SAMPLES)]
    rows = tuple(slots.pack([(sum(a_j * s_j for a_j, s_j in zip(a, s))
                              + rng.randint(-he.NOISE, he.NOISE)) % Q, *a]) for a in A)
    tables = tuple(he._subset_sums(rows[k:k + he.WINDOW])
                   for k in range(0, he.SAMPLES, he.WINDOW))
    return rows, tables, slots.sign_masks(s), s


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
@pytest.mark.parametrize("q,pad", [(2**65, 48), (2**13, 30), (2**65, 3190), (12289, 40)])
def test_keygen_is_randoms_own_draws(q, pad, seed):
    """`keygen` draws its keys as `randint` and `randrange` would, in the
    same order: the same keys at a pad of every size, and where Q is no
    power of two (q = 12289)."""
    params = make_scheme("lattice", q=q, pad=pad)
    pk, sk = he.keygen(params, seed=seed)
    want = _reference_keygen(params, seed)
    assert sk.payload == want and pk.payload == want[:2]


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
    e = matmul([[1, 1], [0, 1]], d)
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
    # a heavy plaintext weight: the product's bound predicts the refusal,
    # and `decrypt`, which alone checks a bound, makes it
    heavy = matmul([[2**9]], he.encrypt(pk, [1], rng))
    assert he.noise_report(heavy).headroom_log2 < 0
    with pytest.raises(he.NoiseOverflowError):
        he.decrypt(sk, heavy)


@pytest.mark.parametrize("q,pad", [(2**10, 16), (10, 22), (7, 1)])
def test_decrypt_at_the_noise_budget(q, pad):
    """The budget is Delta/2: entries whose noise is Delta/2 - 1 either way,
    under a bound of Delta/2 - 1, decrypt exactly, and a bound of Delta/2
    is refused with the budget in the message.  A ciphertext without a
    bound, a key of other parameters and the public key are refused."""
    params = make_scheme("lattice", q=q, pad=pad)
    pk, sk = he.keygen(params, seed=pad)
    Q, delta, slots, s = params.ct_modulus, 1 << pad, params._slots, sk.payload[-1]
    rng, m = random.Random(q), [0, 1, q - 1, q // 2]
    entries, want = [], []
    for x in m:
        for e in (delta // 2 - 1, -(delta // 2 - 1)):
            a = [rng.randrange(Q) for _ in range(he.DIMENSION)]
            c = (sum(a_j * s_j for a_j, s_j in zip(a, s)) + delta * x + e) % Q
            entries.append(slots.pack([c, *a]))
            want.append(x)
    ct = he.Ciphertext(params, len(entries), tuple(entries), delta // 2 - 1)
    assert he.decrypt(sk, ct) == tuple(want)
    with pytest.raises(he.NoiseOverflowError, match=re.escape(
            f"noise bound 2^{pad} exceeds half-Delta 2^{pad - 1}; "
            "decryption would be ambiguous")):
        he.decrypt(sk, he.Ciphertext(params, ct.dim, ct.payload, delta // 2))
    with pytest.raises(he.NoiseOverflowError, match="no noise bound"):
        he.decrypt(sk, he.Ciphertext(params, ct.dim, ct.payload))
    _, other = he.keygen(make_scheme("lattice", q=q, pad=pad + 1), seed=pad)
    with pytest.raises(he.DimensionMismatchError, match="scheme mismatch"):
        he.decrypt(other, ct)
    with pytest.raises(he.WrongKeyRoleError):
        he.decrypt(pk, ct)


@pytest.mark.parametrize("backend", ["mock", "lattice"])
def test_a_ciphertext_without_a_noise_bound_is_refused(backend):
    """A ciphertext that carries no noise bound (None), and every sum and
    product of one, is refused by `decrypt` on lattice, whatever its
    payload; mock has no noise and decrypts it."""
    params = make_scheme(backend, q=2**10, pad=16)
    pk, sk = he.keygen(params, seed=14)
    fresh = he.encrypt(pk, [3], random.Random(14))
    unbounded = he.Ciphertext(params, 1, fresh.payload)
    assert unbounded.noise_bound is None
    for ct in (unbounded, he.add(fresh, unbounded), matmul([[1]], unbounded)):
        if backend == "mock":
            assert he.decrypt(sk, ct) in {(3,), (6,)}
        else:
            assert ct.noise_bound is None
            assert he.noise_report(ct).headroom_log2 == float("-inf")
            with pytest.raises(he.NoiseOverflowError, match="no noise bound"):
                he.decrypt(sk, ct)


def test_noise_report_of_a_mock_ciphertext():
    """Mock carries no noise: no noise bits, and an infinite budget and headroom."""
    pk, _ = he.keygen(make_scheme("mock"), seed=15)
    ct = he.encrypt(pk, [1, 2], random.Random(15))
    assert he.noise_report(ct) == he.NoiseReport(0.0, float("inf"), float("inf"))


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
        results.append((he.decrypt(sk, matmul(M, c1)),
                        he.decrypt(sk, he.add(c1, c2)),
                        he.decrypt(sk, matmul(M, he.add(c1, c2)))))
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
        results.append(he.decrypt(sk, matmul(M, he.encrypt(pk, v, rng))))
    assert results[1] == results[0]
    assert results[0] == tuple(sum(m * x for m, x in zip(row, v)) % q for row in M)
    # the largest slots: every component Q - 1, an encryption of 0 whose noise
    # (the secret's sum less 1) is below the fresh bound
    pk, sk = _backends(q, pad=36)[1]
    params = pk.params
    top = params._slots.pack([params.ct_modulus - 1] * he.SLOTS)
    worst = he.Ciphertext(params, n, (top,) * n, noise_bound=he.FRESH_NOISE_BOUND)
    assert he.decrypt(sk, matmul(M, worst)) == (0,) * len(M)
    wide = he.encrypt(pk, [1] * (n + 1), random.Random(17))
    with pytest.raises(he.DimensionMismatchError):
        matmul([[1] * (n + 1)], wide)


def test_secret_is_ternary():
    params = make_scheme("lattice")
    seen = set()
    for seed in range(4):
        s = he.keygen(params, seed=seed)[1].payload[-1]
        assert len(s) == he.DIMENSION
        seen |= set(s)
    assert seen == {-1, 0, 1}


@pytest.mark.parametrize("q", [2**13, 10], ids=["power-of-two", "q=10"])
def test_encrypt_adds_the_rows_its_bits_draw(q):
    """`encrypt` draws getrandbits(SAMPLES) per entry, and bit i puts
    public-key row i into the sum: the window tables give the per-row
    subset sum."""
    params = make_scheme("lattice", q=q, pad=22)
    pk, _ = he.keygen(params, seed=8)
    rows, slots = pk.payload[0], params._slots
    assert len(rows) == he.SAMPLES
    v = [0, 1, q - 1, q // 2, 3 % q]
    ct = he.encrypt(pk, v, random.Random(9))
    rng = random.Random(9)
    want = []
    for x in v:
        bits = rng.getrandbits(he.SAMPLES)
        chosen = sum(row for i, row in enumerate(rows) if bits >> i & 1)
        want.append(slots.reduce(2**22 * x + chosen))
    assert ct.payload == tuple(want)


@settings(max_examples=20, deadline=None)
@given(q=st.sampled_from([2, 2**13, 2**65, 10, 12289]), pad=st.integers(1, 64),
       seed=st.integers(0, 2**32))
def test_encrypt_masks_the_largest_sum_a_draw_makes(q, pad, seed):
    """A draw of all ones adds every public-key row, the largest sum
    `encrypt` makes: at x = q - 1 it still reduces as `_Slots.reduce`,
    with one AND where Q is a power of two."""
    params = make_scheme("lattice", q=q, pad=pad)
    pk, _ = he.keygen(params, seed=seed)
    slots = params._slots
    ones = SimpleNamespace(getrandbits=lambda k: (1 << k) - 1)
    assert ones.getrandbits(he.SAMPLES) == 2**48 - 1
    ct = he.encrypt(pk, [q - 1], ones)
    assert ct.payload == (slots.reduce(slots.delta * (q - 1) + sum(pk.payload[0])),)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_kernel_reduction_is_reduce(data):
    """The reduction `he.slot_reduction` gives a kernel equals
    `_Slots.reduce` on entries whose slots span (-2^(W-1), 2^(W-1)), the
    edges included: inline where Q is a power of two, a call of it for
    q = 10 and q = 12289."""
    q = data.draw(st.sampled_from([2, 2**13, 2**65, 10, 12289]))
    params = make_scheme("lattice", q=q, pad=data.draw(st.integers(1, 64)))
    slots, Q = params._slots, params.ct_modulus
    form, constants, _ = he.slot_reduction(params)
    assert (form == "reduce({})") == (q & (q - 1) != 0)
    edge = slots.half - 1
    slot = st.one_of(st.sampled_from([-edge, edge, 0, -1, 1, Q - 1, Q, -Q]),
                     st.integers(-edge, edge))
    x = slots.pack(data.draw(st.lists(slot, min_size=he.SLOTS, max_size=he.SLOTS)))
    # x + 0 in a kernel that reduces what it returns
    source = kernel.Source(form, constants)
    a, b = source.vector(2)
    assert function(source, source.reduced(source.add([a], [b])))([x, 0]) == [slots.reduce(x)]


@pytest.mark.parametrize("q,pad", [(2**13, 22), (10, 22), (10, 3)],
                         ids=["power-of-two", "q=10", "q=10-pad-3"])
def test_decrypt_fold_is_the_unpacked_inner_product(q, pad):
    """`decrypt` folds the masked slots of an entry into one sum; on random
    entries, slots at 0 and Q - 1 included, it rounds as c - <a, s> mod Q
    from the unpacked slots does."""
    params = make_scheme("lattice", q=q, pad=pad)
    Q, delta, slots = params.ct_modulus, 1 << pad, params._slots
    rng = random.Random(q + pad)
    for seed in range(4):
        _, sk = he.keygen(params, seed=seed)
        s = sk.payload[-1]
        entries = [slots.pack([0] * he.SLOTS), slots.pack([Q - 1] * he.SLOTS)]
        entries += [slots.pack([rng.choice([0, Q - 1, rng.randrange(Q)])
                                for _ in range(he.SLOTS)]) for _ in range(40)]
        # arbitrary entries: the noise bound 0 lets `decrypt` fold them all
        ct = he.Ciphertext(params, len(entries), tuple(entries), noise_bound=0)
        want = []
        for e in entries:
            c, *a = slots.unpack(e)
            d = (c - sum(a_j * s_j for a_j, s_j in zip(a, s))) % Q
            want.append(((d + delta // 2) // delta) % q)
        assert he.decrypt(sk, ct) == tuple(want)


def _chain(params, x, ops, placed: bool):
    """The vectors of a chain of ops on the packed entries x, each the last
    vector times integer rows ("mv", M) or the last vector plus an earlier
    one ("add", k), as one compiled kernel that returns every vector
    reduced.  `placed`: with `he.slot_reduction`'s limit; otherwise reduced
    only where returned."""
    form, constants, limit = he.slot_reduction(params)
    source = kernel.Source(form, constants, limit if placed else None)
    vectors = [source.vector(len(x))]
    for op, arg in ops:
        vectors.append(source.matvec(arg, vectors[-1]) if op == "mv"
                       else source.add(vectors[-1], vectors[arg]))
    return function(source, [source.reduced(v) for v in vectors])(x)


def _reduce_after_every_op(params, x, ops):
    reduce = params._slots.reduce
    vectors = [list(x)]
    for op, arg in ops:
        vectors.append([reduce(sum(m * e for m, e in zip(row, vectors[-1]))) for row in arg]
                       if op == "mv" else
                       [reduce(a + b) for a, b in zip(vectors[-1], vectors[arg])])
    return vectors


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduction_placement_is_reduce_after_every_op(data):
    """Chains of products with centered entries up to q/2 in magnitude, rows
    of up to 2^GUARD columns, and sums, over packed entries with slots at 0,
    Q - 1 and between, at small pads: the kernel that reduces only where
    the slot limit needs it equals reducing after every op."""
    q = data.draw(st.sampled_from([2, 3, 10, 2**12, 2**12 + 1, 2**65, 2**65 + 1]))
    params = make_scheme("lattice", q=q, pad=data.draw(st.integers(1, 6)))
    Q, slots = params.ct_modulus, params._slots
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    top, low = q // 2, -((q - 1) // 2)  # the extreme centered residues

    def entry():
        return rng.choice([top, low, 0, rng.randint(low, top)])

    n = data.draw(st.integers(1, 1 << he.GUARD))
    x = [slots.pack([rng.choice([0, Q - 1, rng.randrange(Q)]) for _ in range(he.SLOTS)])
         for _ in range(n)]
    ops, lengths = [], [n]
    for _ in range(data.draw(st.integers(1, 6))):
        same = [k for k, m in enumerate(lengths[:-1]) if m == lengths[-1]]
        if same and data.draw(st.booleans()):
            ops.append(("add", data.draw(st.sampled_from(same))))
        else:
            rows = data.draw(st.integers(1, 3))
            ops.append(("mv", [[entry() for _ in range(lengths[-1])] for _ in range(rows)]))
        lengths.append(len(ops[-1][1]) if ops[-1][0] == "mv" else lengths[-1])
    assert _chain(params, x, ops, placed=True) == _reduce_after_every_op(params, x, ops)


@pytest.mark.parametrize("q", [2**10, 2**10 + 1], ids=["power-of-two", "slot-by-slot"])
def test_placed_reductions_keep_a_chain_inside_its_slots(q):
    """Two products of q/2 over 2^GUARD columns of entries at Q - 1 would
    carry out of a slot unreduced; the placed reduction keeps them exact."""
    params = make_scheme("lattice", q=q, pad=1)
    n, Q, slots = 1 << he.GUARD, params.ct_modulus, params._slots
    x = [slots.pack([Q - 1] * he.SLOTS)] * n
    ops = [("mv", [[q // 2] * n]), ("mv", [[q // 2]]), ("add", 2)]
    want = _reduce_after_every_op(params, x, ops)
    assert _chain(params, x, ops, placed=True) == want
    assert _chain(params, x, ops, placed=False) != want
    # a row too long for a slot even over reduced entries is refused
    limit = he.slot_reduction(params)[2]
    cols = limit // (q // 2) + 1
    with pytest.raises(ValueError):
        _chain(params, x[:1] * cols, [("mv", [[q // 2] * cols])], placed=True)
