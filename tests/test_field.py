"""Field tower: descriptor construction, index arithmetic, log tables,
embeddings, norms.

The main oracle is a naive mod-p polynomial arithmetic written here from
scratch; small fields are compared against it exhaustively. The scalar ops
are also checked against sympy's galoistools, modulo each field's stored
modulus, and the modulus search and the prime-field generator against
sympy's gf_irreducible_p and primitive_root.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ, factorint, primerange, primitive_root
from sympy.polys.galoistools import (
    gf_add, gf_gcdex, gf_irreducible_p, gf_mul, gf_neg, gf_pow_mod, gf_rem, gf_strip, gf_sub,
)

from ffwitness import field, nt, poly
from ffwitness.field import (
    CapExceeded,
    FieldElement,
    clear_field_cache,
    frobenius,
    get_embedding,
    is_dth_power,
    make_field,
    make_field_pair,
    mult_order,
)


# -- naive oracle -------------------------------------------------------------

def idx_to_poly(idx, p, k):
    out = []
    for _ in range(k):
        out.append(idx % p)
        idx //= p
    return out


def poly_to_idx(coeffs, p):
    idx = 0
    for c in reversed(coeffs):
        idx = idx * p + c % p
    return idx


def digit_sum(a, b, p, k):
    # a + b adds the coefficients, the base-p digits of the indices, mod p
    return poly_to_idx([x + y for x, y in zip(idx_to_poly(a, p, k), idx_to_poly(b, p, k))], p)


def naive_mul(a, b, p, modulus):
    # modulus given constant-first, monic, length k+1
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c == 0:
            continue
        prod[top] = 0
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - c * modulus[j]) % p
    return [c % p for c in prod[:k]]


# -- descriptor determinism ---------------------------------------------------

def test_modulus_frozen():
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 1, 0, 1)
    assert make_field(7, 1).modulus == (0, 1)


def test_modulus_is_minimal_index():
    # no monic polynomial with a smaller non-leading index is irreducible
    for p, k in ((2, 3), (3, 2), (5, 2)):
        fd = make_field(p, k)
        non_leading = fd.modulus[:-1]
        chosen = poly_to_idx(non_leading, p)
        for idx in range(chosen):
            cand = idx_to_poly(idx, p, k) + [1]
            assert has_root_or_small_factor(cand, p), (p, k, idx)


@pytest.mark.parametrize("p,k", [(2, 8), (2, 11), (2, 16), (3, 5), (5, 4), (7, 3)])
def test_modulus_is_minimal_irreducible_per_sympy(p, k):
    # the search runs through poly.is_irreducible; sympy's test is the oracle
    def irreducible(idx):
        return gf_irreducible_p([ZZ(1)] + [ZZ(c) for c in reversed(idx_to_poly(idx, p, k))], p, ZZ)

    chosen = poly_to_idx(make_field(p, k).modulus[:-1], p)
    assert irreducible(chosen)
    assert not any(irreducible(idx) for idx in range(chosen))


def test_prime_field_generator_is_least_primitive_root():
    for p in primerange(3, 3000):
        assert make_field(p, 1).generator_index == primitive_root(p), p


def has_root_or_small_factor(coeffs, p):
    # naive reducibility witness for degree <= 3: a root suffices
    k = len(coeffs) - 1
    assert k <= 3
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def test_generator_frozen():
    assert make_field(7, 1).generator_index == 3
    assert make_field(3, 2).generator_index == 4
    assert make_field(2, 1).generator_index == 1
    assert make_field(2, 2).generator_index == 2


def test_generator_is_minimal():
    # (5, 2), (7, 2), (11, 2) and (3, 3) have k >= 2, where the search
    # skips the prime-field indices below p
    for p, k in ((7, 1), (3, 2), (2, 3), (5, 1), (5, 2), (7, 2), (11, 2), (3, 3)):
        fd = make_field(p, k)
        g = fd.generator_index
        for idx in range(1, g):
            assert naive_order(fd, idx) < fd.Q - 1
        assert naive_order(fd, g) == fd.Q - 1


def naive_order(fd, idx):
    p, k = fd.p, fd.k
    a = idx_to_poly(idx, p, k)
    cur = a[:]
    n = 1
    one = [1] + [0] * (k - 1)
    while cur != one:
        cur = naive_mul(cur, a, p, list(fd.modulus))
        n += 1
        assert n <= fd.Q
    return n


# -- arithmetic against the naive oracle --------------------------------------

@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 1), (7, 1)])
def test_mul_matches_naive_exhaustive(p, k):
    fd = make_field(p, k)
    mod = list(fd.modulus)
    for a in range(fd.Q):
        pa = idx_to_poly(a, p, k)
        for b in range(fd.Q):
            pb = idx_to_poly(b, p, k)
            want = poly_to_idx(naive_mul(pa, pb, p, mod), p)
            assert fd.mul_idx(a, b) == want


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (7, 1)])
def test_add_matches_naive_exhaustive(p, k):
    fd = make_field(p, k)
    for a in range(fd.Q):
        pa = idx_to_poly(a, p, k)
        for b in range(fd.Q):
            pb = idx_to_poly(b, p, k)
            want = poly_to_idx([(x + y) % p for x, y in zip(pa, pb)], p)
            assert fd.add_idx(a, b) == want


@pytest.mark.parametrize("p,k", [(3, 9), (101, 2), (11, 4), (5, 4), (3, 2), (7, 1)])
def test_scalar_add_sub_neg_match_digit_oracle(p, k):
    # every odd-p field adds and subtracts through its Zech table, the
    # small ones included
    fd = make_field(p, k)
    rng = random.Random(p * 100 + k)
    pairs = [(0, 0), (fd.Q - 1, fd.Q - 1), (0, fd.Q - 1), (fd.Q - 1, 1)]
    pairs += [(rng.randrange(fd.Q), rng.randrange(fd.Q)) for _ in range(500)]
    for a, b in pairs:
        pa, pb = idx_to_poly(a, p, k), idx_to_poly(b, p, k)
        assert fd.add_idx(a, b) == poly_to_idx([(x + y) % p for x, y in zip(pa, pb)], p)
        assert fd.sub_idx(a, b) == poly_to_idx([(x - y) % p for x, y in zip(pa, pb)], p)
        assert fd.neg_idx(b) == poly_to_idx([(-y) % p for y in pb], p)


def test_field_axioms_f9():
    fd = make_field(3, 2)
    idxs = range(fd.Q)
    for a in idxs:
        assert fd.add_idx(a, fd.neg_idx(a)) == 0
        if a:
            assert fd.mul_idx(a, fd.inv_idx(a)) == 1
        for b in idxs:
            assert fd.mul_idx(a, b) == fd.mul_idx(b, a)
            for c in (0, 1, 4, 7):
                lhs = fd.mul_idx(a, fd.add_idx(b, c))
                rhs = fd.add_idx(fd.mul_idx(a, b), fd.mul_idx(a, c))
                assert lhs == rhs


def test_pow_edge_cases():
    fd = make_field(7, 1)
    assert fd.pow_idx(0, 0) == 1
    assert fd.pow_idx(0, 5) == 0
    assert fd.pow_idx(3, 0) == 1
    assert fd.pow_idx(3, -1) == fd.inv_idx(3) == 5
    with pytest.raises(ZeroDivisionError):
        fd.pow_idx(0, -1)
    with pytest.raises(ZeroDivisionError):
        fd.inv_idx(0)
    for a in range(1, 7):
        assert fd.pow_idx(a, 6) == 1
        assert fd.pow_idx(a, 7) == a


def test_known_f9_facts():
    f9 = make_field(3, 2)
    x_plus_1 = 4  # digits (1, 1)
    assert f9.mul_idx(x_plus_1, x_plus_1) == 6  # (x+1)**2 == 2x
    assert f9.mult_order_idx(x_plus_1) == 8


# -- log tables ---------------------------------------------------------------

def test_exp_log_roundtrip():
    for p, k in ((7, 1), (3, 2), (2, 4)):
        fd = make_field(p, k)
        g = fd.generator_index
        for a in range(1, fd.Q):
            assert fd.pow_idx(g, fd.log_idx(a)) == a
        with pytest.raises(ValueError):
            fd.log_idx(0)


def test_log_vec_zero_sentinel():
    fd = make_field(3, 2)
    logs = fd.log_vec(np.arange(fd.Q))
    assert logs[0] == -1
    assert sorted(int(v) for v in logs[1:]) == list(range(fd.Q - 1))


@pytest.mark.parametrize("k", range(2, 17))
def test_exp_doubling_matches_matmul(k):
    # the p = 2 XOR-doubling exp table against the generic block-matmul one
    fd = make_field(2, k)
    exp = fd._exp_by_matmul()
    log = np.full(fd.Q, -1, dtype=np.int64)
    log[exp] = np.arange(fd.Q - 1)
    assert np.array_equal(fd._exp, exp)
    assert np.array_equal(fd._log, log)


def _exp_row_major(fd):
    """The exp table by the row-major int64 recurrence: row j holds the
    digits of g**j, and each block of 4,096 rows is the last one times
    (M**4096).T, M the matrix of multiplication by g from the naive oracle."""
    p, k, n, B = fd.p, fd.k, fd.Q - 1, 4096
    g = idx_to_poly(fd.generator_index, p, k)
    unit = [[int(i == j) for i in range(k)] for j in range(k)]  # x**j
    M = np.array([naive_mul(g, x_j, p, list(fd.modulus)) for x_j in unit], dtype=np.int64).T
    rows = np.zeros((min(B, n), k), dtype=np.int64)
    rows[0, 0] = 1
    for j in range(1, len(rows)):
        rows[j] = (M @ rows[j - 1]) % p
    MB = M
    for _ in range(12):  # M**4096
        MB = (MB @ MB) % p
    pp = p ** np.arange(k, dtype=np.int64)
    out = [rows @ pp]
    while len(out) * B < n:
        rows = (rows @ MB.T) % p
        out.append(rows @ pp)
    return np.concatenate(out)[:n]


@pytest.mark.parametrize("p,k", [(3, 8), (7, 5), (2039, 2), (3, 11), (65537, 1)])
def test_exp_recurrence_matches_the_row_major_reference(p, k):
    # each field spans several 4,096-column blocks; the k >= 2 fields take
    # the int32 block, GF(65537) the int64 one, as (p - 1)**2 = 2**32
    fd = make_field(p, k)
    assert np.array_equal(fd._exp, _exp_row_major(fd))


def test_generator_search_powmod_count_is_pinned(monkeypatch):
    # GF(17**4) rejects 290 candidates before index 307. The norm decides
    # r = 2, the one prime of p - 1, so only r = 3, 5 and 29 take powmods:
    # 6 in the modulus search, 1 for the Frobenius matrix and 148 in the
    # generator search, against 445 with a powmod for every prime
    make_field(17, 1)
    calls = []
    powmod = poly.poly_powmod
    monkeypatch.setattr(poly, "poly_powmod", lambda *args: calls.append(args) or powmod(*args))
    fd = field.FieldDescriptor(17, 4, field.DEFAULT_CAP)
    assert fd.generator_index == 307
    assert len(calls) == 155


@pytest.mark.parametrize("p,k", [(2039, 2), (2, 22)])
def test_kernels_widen_the_int32_tables(p, k):
    # above 46,341 elements a 32-bit log * e wraps; the kernels widen
    # before they multiply and agree with the Python-int scalar ops
    clear_field_cache()
    fd = make_field(p, k)
    n = fd.Q - 1
    rng = np.random.default_rng(0)
    u = np.concatenate(([0, 1, n], rng.integers(0, fd.Q, 400)))
    v = np.concatenate(([3, 0, n], rng.integers(0, fd.Q, 400)))
    units = u[u != 0]
    for e in (n - 1, n - 2, n // 2 + 1):  # n - 1 = Q - 2
        assert fd.pow_vec(u, e).tolist() == [fd.pow_idx(a, e) for a in u.tolist()]
    assert fd.pow_vec(units, 2 - n).tolist() == [fd.pow_idx(a, 2 - n) for a in units.tolist()]
    assert fd.mul_vec(u, v).tolist() == [fd.mul_idx(a, b) for a, b in zip(u.tolist(), v.tolist())]
    assert fd.log_vec(u).tolist() == [fd.log_idx(a) if a else -1 for a in u.tolist()]
    assert fd.add_vec(u, v).tolist() == [fd.add_idx(a, b) for a, b in zip(u.tolist(), v.tolist())]
    assert fd.sub_vec(u, v).tolist() == [fd.sub_idx(a, b) for a, b in zip(u.tolist(), v.tolist())]
    kernels = [
        fd.all_indices(), fd.add_vec(u, v), fd.sub_vec(u, v), fd.mul_vec(u, v),
        fd.pow_vec(u, n - 1), fd.log_vec(u), fd.eval_poly_vec([5, n, 1], u),
    ]
    assert [a.dtype for a in kernels] == [np.int64] * len(kernels)
    clear_field_cache()


def test_int32_tables_refuse_a_field_above_2_30():
    # a raised cap does not reach fields whose sum of two logs overflows
    # int32; refused before any table is allocated
    with pytest.raises(CapExceeded, match="int32 tables"):
        make_field(2, 31, cap=1 << 40)
    assert (2, 31) not in field._CACHE


@pytest.mark.parametrize("p,k", [(3, 8), (2, 12)])
def test_bijection_check_rejects_non_primitive_generator(p, k, monkeypatch):
    # (3, 8) takes the matmul path past one block, (2, 12) the doubling path
    built = make_field(p, k)
    r = min(nt.factorize(p**k - 1).prime_divisors())
    # g**r has order (Q-1)/r, so its powers miss most nonzero elements
    g_r = built.pow_idx(built.generator_index, r)
    monkeypatch.setattr(field.FieldDescriptor, "_find_generator", lambda fd: g_r)
    with pytest.raises(RuntimeError, match="exp table is not a bijection"):
        field.FieldDescriptor(p, k, field.DEFAULT_CAP)


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (251, 1), (2, 3), (7, 2)])
def test_scalar_ops_match_naive_exhaustive(p, k):
    # every pair of elements, on fields of up to 256 elements
    fd = make_field(p, k)
    Q = fd.Q
    digits, mod = [idx_to_poly(a, p, k) for a in range(Q)], list(fd.modulus)
    for a in range(Q):
        for b in range(Q):
            assert fd.add_idx(a, b) == digit_sum(a, b, p, k)
            # a - b is the one x with x + b = a
            assert digit_sum(fd.sub_idx(a, b), b, p, k) == a
            assert fd.mul_idx(a, b) == poly_to_idx(naive_mul(digits[a], digits[b], p, mod), p)


def test_a_small_field_is_charged_only_its_tables():
    clear_field_cache()
    fd = make_field(2, 8)
    # exp holds Q - 1 entries and log Q, half of TABLE_BYTES each
    assert fd.nbytes == field.TABLE_BYTES * 256 - field.TABLE_BYTES // 2
    assert field.cache_info()["bytes"] == sum(map(field._nbytes, field._CACHE.values()))
    clear_field_cache()


def test_cap_enforced():
    clear_field_cache()
    with pytest.raises(CapExceeded):
        make_field(3, 2, cap=5)
    clear_field_cache()


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (2, 4)])
def test_vector_ops_match_scalar(p, k):
    # every pair (a, b), zeros and b = -a included, with b as a full array
    # and as a 0-d one
    fd = make_field(p, k)
    idxs = fd.all_indices()
    for b in range(fd.Q):
        sums = [digit_sum(a, b, p, k) for a in range(fd.Q)]
        for v in (np.full_like(idxs, b), np.array(b, dtype=np.int64)):
            add, sub = fd.add_vec(idxs, v), fd.sub_vec(idxs, v)
            assert add.dtype == sub.dtype == np.int64
            assert add.tolist() == sums
            # a - b is the one x with x + b = a
            assert [digit_sum(x, b, p, k) for x in sub.tolist()] == idxs.tolist()
        assert fd.mul_vec(idxs, np.int64(b)).tolist() == [fd.mul_idx(a, b) for a in range(fd.Q)]
    pw = fd.pow_vec(idxs, 3)
    assert pw.tolist() == [fd.pow_idx(a, 3) for a in range(fd.Q)]


@pytest.mark.parametrize("p,k", [(7, 1), (2, 3), (3, 2)])
def test_mul_vec_matches_mul_idx_exhaustively(p, k):
    # every pair as two full arrays, each element against the whole field as
    # a scalar broadcast (0-d array and numpy scalar, on either side), and
    # every pair as 0-d arrays; inputs are read-only, so a kernel that wrote
    # into them would raise
    fd = make_field(p, k)
    idxs = fd.all_indices()
    u, v = (np.ascontiguousarray(a) for a in np.meshgrid(idxs, idxs))
    for a in (idxs, u, v):
        a.flags.writeable = False
    want = [[fd.mul_idx(a, b) for a in range(fd.Q)] for b in range(fd.Q)]
    got = fd.mul_vec(u, v)
    assert got.dtype == np.int64 and got.shape == u.shape
    assert got.tolist() == want
    for b in range(fd.Q):
        for s in (np.array(b, dtype=np.int64), np.int64(b)):
            assert fd.mul_vec(idxs, s).dtype == np.int64
            assert fd.mul_vec(idxs, s).tolist() == want[b]
            assert fd.mul_vec(s, idxs).tolist() == want[b]
        for a in range(fd.Q):
            r = fd.mul_vec(np.array(a), np.array(b))
            assert r.shape == () and r.dtype == np.int64 and int(r) == want[b][a]
    assert idxs.tolist() == list(range(fd.Q))
    assert u.tolist() == [list(range(fd.Q))] * fd.Q


def test_eval_poly_vec_horner():
    fd = make_field(7, 1)
    coeffs = [2, 0, 1]  # 2 + x**2
    vals = fd.eval_poly_vec(coeffs, fd.all_indices())
    for a in range(7):
        assert vals[a] == (2 + a * a) % 7


def test_scalar_ops_reject_indices_outside_the_field():
    # a negative index would wrap in the tables (on GF(9) mul_idx(-1, 2),
    # add_idx(-1, 1) and log_idx(-2) gave 4, 6 and 3) and on GF(8) the XOR
    # add_idx(8, 1) gave 9; every element argument must lie in [0, Q)
    for fd in (make_field(3, 2), make_field(2, 3)):
        for bad in (-1, -2, fd.Q, fd.Q + 1):
            calls = [("add_idx", bad, 1), ("add_idx", 1, bad), ("sub_idx", bad, 1), ("sub_idx", 1, bad),
                     ("neg_idx", bad), ("mul_idx", bad, 2), ("mul_idx", 2, bad), ("pow_idx", bad, 2),
                     ("inv_idx", bad), ("log_idx", bad), ("mult_order_idx", bad)]
            for name, *args in calls:
                with pytest.raises(ValueError, match="out of range"):
                    getattr(fd, name)(*args)
    # exponents are not element indices and still reduce mod Q - 1
    f9 = make_field(3, 2)
    assert f9.pow_idx(2, -1) == f9.inv_idx(2) and f9.pow_idx(2, 8 + 3) == f9.pow_idx(2, 3)


# -- elements -----------------------------------------------------------------

def test_element_dunders():
    fd = make_field(7, 1)
    a, b = fd.element(3), fd.element(5)
    assert (a + b).idx == 1
    assert (a * b).idx == 1
    assert (a - b).idx == 5
    assert (-a).idx == 4
    assert (a / b).idx == fd.mul_idx(3, fd.inv_idx(5))
    assert (a**2).idx == 2
    assert a == fd.element(3) and hash(a) == hash(fd.element(3))
    assert a != b


def test_mixed_field_operands_rejected():
    a = make_field(7, 1).element(3)
    b = make_field(5, 1).element(3)
    with pytest.raises(ValueError, match="mixed-field"):
        a + b


def test_json_roundtrip_and_drift():
    # a rebuild from (p, k) alone reproduces the serialized descriptor; a
    # report whose stored descriptor drifted is refused by verify (see
    # test_construct.py::test_verify_report_detects_descriptor_drift)
    fd = make_field(3, 2)
    blob = fd.to_json()
    assert blob == {"p": 3, "k": 2, "modulus": [1, 0, 1], "generator": 4}
    clear_field_cache()
    same = make_field(blob["p"], blob["k"])
    assert same is not fd and same.to_json() == blob


# -- embeddings, norms, frobenius ----------------------------------------------

def test_embedding_is_ring_hom():
    src = make_field(3, 2)
    dst = make_field(3, 4)
    emb = get_embedding(src, dst)
    for a in range(src.Q):
        fa = emb.map_idx(a)
        for b in range(src.Q):
            fb = emb.map_idx(b)
            assert emb.map_idx(src.add_idx(a, b)) == dst.add_idx(fa, fb)
            assert emb.map_idx(src.mul_idx(a, b)) == dst.mul_idx(fa, fb)
    assert emb.map_idx(0) == 0 and emb.map_idx(1) == 1


@pytest.mark.parametrize("p,m,k", [
    (2, 1, 4), (2, 2, 6), (2, 3, 12), (2, 4, 8), (2, 8, 16), (2, 5, 15),
    (3, 1, 2), (3, 2, 4), (3, 3, 9), (3, 5, 10), (5, 2, 6), (7, 1, 4),
    (7, 2, 4), (13, 2, 4), (31, 1, 3), (251, 1, 2), (3, 1, 1), (5, 3, 3),
])
def test_embedding_matches_whole_field_search(p, m, k):
    src, dst = make_field(p, m), make_field(p, k)
    emb = get_embedding(src, dst)
    coeffs = [c % p for c in src.modulus]
    roots = np.flatnonzero(dst.eval_poly_vec(coeffs, dst.all_indices()) == 0)
    assert emb.root_idx == roots.min()

    def scalar_image(a):  # sum c_i root**i, one element at a time
        out = 0
        for i, c in enumerate(idx_to_poly(a, p, m)):
            out = dst.add_idx(out, dst.mul_idx(c, dst.pow_idx(emb.root_idx, i)))
        return out

    assert tuple(emb.image_indices()) == tuple(scalar_image(a) for a in range(src.Q))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 1), (3, 3), (7, 2), (251, 1)])
def test_self_embedding_is_the_eager_identity(p, k):
    # the self-embedding holds no map, but agrees with the eager one the
    # general construction builds
    fd = make_field(p, k)
    emb, eager = get_embedding(fd, fd), field._Embedding(fd, fd)
    assert tuple(emb.image_indices()) == tuple(eager.image_indices()) == tuple(range(fd.Q))
    assert emb.root_idx == eager.root_idx
    for a in range(fd.Q):
        assert emb.map_idx(a) == eager.map_idx(a)


def test_embedding_charge_covers_what_it_allocates():
    # the image is an int32 array charged by its nbytes; only the fixed
    # object headers (under 1 KiB) go uncharged, not a per-element cost
    clear_field_cache()
    src, dst = make_field(2039, 1), make_field(2039, 2)
    field._Embedding(src, dst)  # a first build, so numpy's own setup is not traced
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emb = field._Embedding(src, dst)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained - 1024 <= emb.nbytes <= retained
    # the memoryview hands out Python ints, never numpy scalars
    assert all(type(a) is int for a in emb.image_indices()) and type(emb.map_idx(7)) is int
    assert get_embedding(src, dst).nbytes == emb.nbytes
    assert field.cache_info()["bytes"] == sum(map(field._nbytes, field._CACHE.values()))
    clear_field_cache()


def test_embedding_composes_through_tower():
    f3, f9, f81 = make_field(3, 1), make_field(3, 2), make_field(3, 4)
    lo = get_embedding(f3, f9)
    hi = get_embedding(f9, f81)
    direct = get_embedding(f3, f81)
    for a in range(3):
        assert direct.map_idx(a) == hi.map_idx(lo.map_idx(a))


def test_image_indices_count():
    f9, f81 = make_field(3, 2), make_field(3, 4)
    img = get_embedding(f9, f81).image_indices()
    assert len(set(img)) == 9


def test_frobenius_fixes_exactly_base():
    f3, f9 = make_field(3, 1), make_field(3, 2)
    base_img = set(get_embedding(f3, f9).image_indices())
    fixed = {a for a in range(9) if frobenius(f9.element(a), 1).idx == a}
    assert fixed == base_img


def test_mult_order_and_dth_power():
    f7 = make_field(7, 1)
    assert mult_order(f7.element(3)) == 6
    assert mult_order(f7.element(2)) == 3
    squares = {a for a in range(1, 7) if is_dth_power(f7.element(a), 2)}
    assert squares == {1, 2, 4}
    brute = {f7.mul_idx(a, a) for a in range(1, 7)}
    assert squares == brute


def test_field_cache_identity():
    a = make_field(3, 2)
    b = make_field(3, 2)
    assert a is b
    clear_field_cache()
    c = make_field(3, 2)
    assert c is not a and c.modulus == a.modulus


# (p, k): p = 2 and odd p, prime fields and extensions, 8 to 3**9 elements
ORACLE_FIELDS = [(2, 3), (2, 8), (2, 12), (7, 2), (3, 5), (257, 1), (101, 2), (3, 9)]


def _gf(fd, idx):
    """galoistools form of an element: its coefficients, highest first."""
    digits = []
    for _ in range(fd.k):
        idx, c = divmod(idx, fd.p)
        digits.append(ZZ(c))
    return gf_strip(digits[::-1])


def _idx(fd, g):
    return sum(int(c) * fd.p**i for i, c in enumerate(reversed(g)))


@settings(max_examples=300, deadline=None)
@given(cell=st.sampled_from(ORACLE_FIELDS), data=st.data())
def test_scalar_ops_match_galoistools(cell, data):
    p, k = cell
    fd = make_field(p, k)
    mod = [ZZ(c) for c in reversed(fd.modulus)]
    elem = st.one_of(st.just(0), st.just(1), st.integers(0, fd.Q - 1))
    a, b = data.draw(elem), data.draw(elem)
    e = data.draw(st.integers(-2 * fd.Q, 2 * fd.Q))
    # zero operands, and a + (-a) = 0, which the Zech table marks with -1
    for x, y in [(a, b), (0, b), (a, 0), (a, fd.neg_idx(a)), (a, a)]:
        gx, gy = _gf(fd, x), _gf(fd, y)
        assert fd.add_idx(x, y) == _idx(fd, gf_add(gx, gy, p, ZZ))
        assert fd.sub_idx(x, y) == _idx(fd, gf_sub(gx, gy, p, ZZ))
        assert fd.mul_idx(x, y) == _idx(fd, gf_rem(gf_mul(gx, gy, p, ZZ), mod, p, ZZ))
    assert fd.add_idx(a, fd.neg_idx(a)) == 0
    assert fd.neg_idx(a) == _idx(fd, gf_neg(_gf(fd, a), p, ZZ))
    if a == 0:
        with pytest.raises(ZeroDivisionError):
            fd.inv_idx(a)
        if e < 0:
            with pytest.raises(ZeroDivisionError):
                fd.pow_idx(a, e)
        else:
            assert fd.pow_idx(a, e) == (1 if e == 0 else 0)
        return
    s, _, h = gf_gcdex(_gf(fd, a), mod, p, ZZ)
    assert h == [1]
    inv = gf_rem(s, mod, p, ZZ)
    assert fd.inv_idx(a) == _idx(fd, inv)
    base = _gf(fd, a) if e >= 0 else inv
    assert fd.pow_idx(a, e) == _idx(fd, gf_pow_mod(base, abs(e), mod, p, ZZ))
    j = fd.log_idx(a)
    assert 0 <= j < fd.Q - 1
    assert _gf(fd, a) == gf_pow_mod(_gf(fd, fd.generator_index), j, mod, p, ZZ)


# odd p with k >= 2 up to 20,000 elements, and GF(17**4), which tests 291
# candidates, GF(3**11) and the cap-sized GF(2039**2)
GENERATOR_ORACLE_FIELDS = [
    (p, k) for p in primerange(3, 142) for k in range(2, 10) if p**k <= 20000
] + [(17, 4), (3, 11), (2039, 2)]


@pytest.mark.parametrize("p,k", GENERATOR_ORACLE_FIELDS)
def test_generator_is_the_least_primitive_index_per_galoistools(p, k):
    # g has order Q - 1 and no index in [p, g) does, by sympy's powmods for
    # every prime of Q - 1; the indices below p are the prime field
    fd = make_field(p, k)
    mod = [ZZ(c) for c in reversed(fd.modulus)]
    cofactors = [(fd.Q - 1) // r for r in factorint(fd.Q - 1)]

    def primitive(idx):
        return all(gf_pow_mod(_gf(fd, idx), c, mod, p, ZZ) != [1] for c in cofactors)

    assert primitive(fd.generator_index)
    assert not any(primitive(idx) for idx in range(p, fd.generator_index))


def test_zech_table_is_built_on_first_scalar_addition():
    # fields that only run vector kernels, multiply or negate never hold one
    clear_field_cache()
    fd = make_field(101, 2)
    idx = fd.all_indices()
    fd.sub_vec(fd.add_vec(idx, idx), fd.mul_vec(idx, idx))
    fd.mul_idx(5, 7)
    fd.neg_idx(5)
    assert fd._zech is None
    fd.add_idx(5, 7)
    zech = fd.zech_table()
    assert fd._zech is zech
    n = fd.Q - 1
    # 1 + g**j = 0 exactly at g**j = -1, j = n/2
    assert len(zech) == n and [j for j in range(n) if zech[j] < 0] == [n // 2]
    clear_field_cache()


# -- the bounded field cache ----------------------------------------------------

def test_eviction_drops_the_data_naming_the_field(monkeypatch):
    clear_field_cache()
    f3, f9 = make_field(3, 1), make_field(3, 2)  # GF(3) is built first
    emb = get_embedding(f3, f9)
    assert field.cache_info()["bytes"] == f3.nbytes + f9.nbytes + emb.nbytes
    # room for GF(5) once one byte is freed: only the least recently used
    # GF(3) goes, with the embedding that GF(9)'s entry holds for it
    monkeypatch.setattr(field, "CACHE_BUDGET", field.cache_info()["bytes"] + field.TABLE_BYTES * 5 - 1)
    make_field(5, 1)
    info = field.cache_info()
    assert (info["evictions"], info["entries"]) == (1, 2)
    assert field._CACHE[(3, 2)]._derived == {} and info["bytes"] == f9.nbytes + make_field(5, 1).nbytes
    assert make_field(3, 2) is f9
    g3 = make_field(3, 1)
    assert g3 is not f3 and get_embedding(g3, f9).src is g3
    clear_field_cache()


def test_rebuilt_field_gets_a_fresh_embedding(monkeypatch):
    clear_field_cache()
    f3, f9 = make_field(3, 1), make_field(3, 2)
    assert get_embedding(f3, f9).target is f9
    monkeypatch.setattr(field, "CACHE_BUDGET", 0)
    make_field(7, 1)  # evicts everything
    monkeypatch.undo()
    g3, g9 = make_field(3, 1), make_field(3, 2)
    assert g9 is not f9
    emb = get_embedding(g3, g9)
    assert emb.target is g9 and emb.src is g3
    # a descriptor that is no longer cached gets a map, but it is not held
    assert get_embedding(f3, f9).target is f9 and get_embedding(g3, g9) is emb
    clear_field_cache()


def test_lazy_tables_are_charged_to_their_entry():
    clear_field_cache()
    fd = make_field(101, 2)
    before = field.cache_info()["bytes"]
    fd.add_idx(5, 7)  # builds the Zech table
    assert field.cache_info()["bytes"] == before + fd.zech_table().nbytes
    clear_field_cache()
    assert field.cache_info() == {
        "hits": 0, "misses": 0, "evictions": 0, "bytes": 0, "budget": field.CACHE_BUDGET, "entries": 0,
    }


@pytest.mark.parametrize("p,k", [(2, 22), (2039, 2)])
def test_budget_holds_a_cap_sized_field_with_its_subfields(p, k):
    # every proper subfield and its embedding into the field fit beside it
    # (about 7.8 KB spare for GF(2**22)), so nothing is evicted
    clear_field_cache()
    subs = [make_field(p, m) for m in range(1, k) if k % m == 0]
    big = make_field(p, k)
    for sub in subs:
        get_embedding(sub, big)
    info = field.cache_info()
    assert (info["evictions"], info["entries"]) == (0, len(subs) + 1)
    assert info["bytes"] <= info["budget"]
    clear_field_cache()


def test_cap_sized_pair_is_built_once():
    # the budget holds a cap-sized field and all its proper subfields, so
    # GF(2**11) and GF(2**22) do not evict each other
    clear_field_cache()
    pairs = [make_field_pair(2048, 2) for _ in range(20)]
    assert all(big is pairs[0][1] for _, big in pairs)
    info = field.cache_info()
    assert (info["misses"], info["evictions"]) == (3, 0)  # GF(2), GF(2**11), GF(2**22)
    assert info["bytes"] <= info["budget"]
    clear_field_cache()
