"""Polynomial layer: arithmetic, irreducibility, the binomial and composition
criteria, squarefree parts and layers, roots in extensions.

Irreducibility oracles: naive trial division by all lower-degree monic
polynomials, written here from scratch over the index arithmetic, and
sympy's galoistools over prime fields. Distinct-degree oracles: sympy's
gf_ddf_zassenhaus over prime fields, and over GF(4) and GF(9) the product
of the components and the degree of every root, by evaluation. Root
oracles: evaluation at every element of the extension (the whole-field
search that roots_in_extension replaced), and sympy's galoistools over
prime fields; the multiplicities they find are checked against the
squarefree layers, whose own oracle is sympy's gf_sqf_list.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ
from sympy.polys.galoistools import (
    gf_ddf_zassenhaus,
    gf_factor,
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_sqf_list,
    gf_sqf_part,
)

from ffwitness import poly
from ffwitness.field import get_embedding, make_field, FieldElement
from ffwitness.poly import (
    Polynomial,
    binomial_irreducible_check,
    composed_irreducible_check,
    distinct_degree_factors,
    is_irreducible,
    poly_powmod,
    pth_root_poly,
    roots_in_extension,
    squarefree_layers,
    squarefree_part,
)


def all_monic(fd, deg):
    for tail in itertools.product(range(fd.Q), repeat=deg):
        yield Polynomial(fd, tuple(tail) + (1,))


def naive_irreducible(f):
    # trial division by every monic divisor candidate of degree 1..deg//2
    n = f.degree()
    if n <= 0:
        return False
    fd = f.field
    for d in range(1, n // 2 + 1):
        for g in all_monic(fd, d):
            if (f % g).is_zero():
                return False
    return True


# schoolbook references on coefficient-index tuples (constant first), written
# over the scalar field ops, which test_field.py checks against galoistools


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ref_mul(fd, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fd.add_idx(out[i + j], fd.mul_idx(x, y))
    return _trim(out)


def ref_divmod(fd, a, b):
    rem = list(a)
    db = len(b) - 1
    inv_lead = fd.inv_idx(b[-1])
    quo = [0] * max(0, len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        q = fd.mul_idx(rem[i], inv_lead)
        quo[i - db] = q
        for j in range(db + 1):
            rem[i - db + j] = fd.sub_idx(rem[i - db + j], fd.mul_idx(q, b[j]))
    return _trim(quo), _trim(rem)


def ref_powmod(fd, a, e, mod):
    result, acc = (1,), ref_divmod(fd, a, mod)[1]
    while e:
        if e & 1:
            result = ref_divmod(fd, ref_mul(fd, result, acc), mod)[1]
        acc = ref_divmod(fd, ref_mul(fd, acc, acc), mod)[1]
        e >>= 1
    return result


def test_construction_trims_and_rejects():
    fd = make_field(7, 1)
    f = Polynomial(fd, (3, 1, 0, 0))
    assert f.degree() == 1
    assert Polynomial(fd, (0,)).is_zero()
    assert Polynomial.x(fd).coeffs == (0, 1)
    assert Polynomial.constant(fd, 5).coeffs == (5,)


def test_public_constructor_rejects_bad_coefficients():
    # internal arithmetic skips these checks; the public constructor keeps them
    fd = make_field(7, 2)
    for bad in [(fd.Q,), (1, fd.Q + 5), (-1,), (3, -2, 1)]:
        with pytest.raises(ValueError):
            Polynomial(fd, bad)
    other = make_field(7, 1)
    with pytest.raises(ValueError):
        Polynomial(fd, (FieldElement(fd, 2), FieldElement(other, 1)))
    assert Polynomial(fd, (FieldElement(fd, 2), fd.Q - 1, 0)).coeffs == (2, fd.Q - 1)


def test_binomial_builder():
    fd = make_field(7, 1)
    f = Polynomial.binomial(fd, 3, 2)
    assert f.coeffs == (5, 0, 0, 1)  # x**3 - 2


def test_mul_then_divmod_roundtrip():
    fd = make_field(7, 1)
    a = Polynomial(fd, (1, 2, 3))
    b = Polynomial(fd, (4, 5, 0, 1))
    prod = a * b
    q, r = divmod(prod, a)
    assert r.is_zero() and q == b
    q, r = divmod(prod + Polynomial(fd, (6,)), a)
    assert r.coeffs == (6,)


def test_divmod_matches_eval():
    # f == q*g + r pointwise over the whole field
    fd = make_field(3, 2)
    f = Polynomial(fd, (4, 7, 2, 0, 1))
    g = Polynomial(fd, (5, 1, 1))
    q, r = divmod(f, g)
    for a in range(fd.Q):
        lhs = f.eval_idx(a)
        rhs = fd.add_idx(fd.mul_idx(q.eval_idx(a), g.eval_idx(a)), r.eval_idx(a))
        assert lhs == rhs


def test_gcd_is_monic_common_divisor():
    fd = make_field(7, 1)
    a = Polynomial(fd, (6, 1))          # x - 1
    b = Polynomial(fd, (2, 1))          # x + 2
    f = a * a * b
    g = a * Polynomial(fd, (3, 1))
    d = f.gcd(g)
    assert d == a
    assert d.coeffs[-1] == 1


def test_derivative_char_p():
    f7 = make_field(7, 1)
    x7 = Polynomial(f7, (0,) * 7 + (1,))
    assert x7.derivative().is_zero()
    f = Polynomial(f7, (1, 3, 0, 2))  # 1 + 3x + 2x**3
    assert f.derivative().coeffs == (3, 0, 6)


def test_compose_power():
    fd = make_field(3, 1)
    f = Polynomial(fd, (1, 1))  # x + 1
    assert f.compose_power(2).coeffs == (1, 0, 1)
    g = Polynomial(fd, (2, 0, 1))
    assert g.compose_power(3).coeffs == (2, 0, 0, 0, 0, 0, 1)


def test_poly_powmod_matches_repeated_mul():
    fd = make_field(5, 1)
    f = Polynomial(fd, (2, 1, 1))
    x = Polynomial.x(fd)
    acc = Polynomial(fd, (1,))
    for e in range(8):
        assert poly_powmod(x, e, f) == acc % f
        acc = acc * x


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3)])
def test_poly_powmod_matches_the_right_to_left_reference(p, k):
    # poly_powmod powers from the top bit down, ref_powmod from the bottom
    # up; p = 3 is where 2 = -1, p = 2 where the squares' cross terms vanish.
    # Bases: x and x + delta (the shift fast path), a non-monic linear base,
    # a base of degree at or above the modulus's, and zero (0**0 = 1);
    # moduli down to degree 1.
    fd = make_field(p, k)
    Q = fd.Q
    rng = random.Random(1000 * p + k)
    exps = sorted({0, 1, 2, 3, p, (Q - 1) // 2, Q - 1, Q, rng.randrange(Q * Q), rng.randrange(1 << 40)})
    for deg in (1, 2, 3, 5):
        mod = Polynomial(fd, [rng.randrange(Q) for _ in range(deg)] + [rng.randrange(1, Q)])
        bases = [
            Polynomial.x(fd),
            Polynomial(fd, (rng.randrange(1, Q), 1)),
            Polynomial(fd, (rng.randrange(Q), rng.randrange(1, Q))),
            Polynomial(fd, [rng.randrange(Q) for _ in range(deg + rng.randint(0, 3))] + [rng.randrange(1, Q)]),
            Polynomial(fd, ()),
        ]
        for base in bases:
            for e in exps:
                got = poly_powmod(base, e, mod).coeffs
                assert got == ref_powmod(fd, base.coeffs, e, mod.coeffs), (base, e, mod)
    zero = Polynomial(fd, ())
    assert poly_powmod(zero, 0, Polynomial.x(fd)).coeffs == (1,)
    assert poly_powmod(zero, 5, Polynomial.x(fd)).coeffs == ()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.data())
def test_poly_powmod_matches_sympy_over_prime_fields(p, data):
    fd = make_field(p, 1)
    coeff = st.integers(0, p - 1)
    mod = data.draw(st.lists(coeff, min_size=1, max_size=7)) + [data.draw(st.integers(1, p - 1))]
    base = _trim(data.draw(st.lists(coeff, max_size=10)))
    e = data.draw(st.integers(0, 1 << 64))
    want = gf_pow_mod([ZZ(c) for c in reversed(base)], e, [ZZ(c) for c in reversed(mod)], p, ZZ)
    got = poly_powmod(Polynomial(fd, base), e, Polynomial(fd, mod))
    assert got.coeffs == tuple(int(c) for c in reversed(want))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 2), (3, 5), (257, 1), (101, 2), (2, 12)])
def test_log_domain_arithmetic_matches_index_loops(p, k):
    # products, divisions and modular powers against the schoolbook
    # references above, which run index by index
    fd = make_field(p, k)
    rng = random.Random(100 * p + k)
    for _ in range(40):
        a = Polynomial(fd, [rng.randrange(fd.Q) for _ in range(rng.randint(0, 6))])
        b = Polynomial(fd, [rng.randrange(fd.Q) for _ in range(rng.randint(0, 4))] + [rng.randrange(1, fd.Q)])
        c = Polynomial(fd, [rng.randrange(fd.Q) for _ in range(rng.randint(1, 4))])
        e = rng.randrange(3 * fd.Q)
        assert (b * c).coeffs == ref_mul(fd, b.coeffs, c.coeffs)
        # b * c divided by b cancels every remainder term
        for f in (a, b * c):
            assert (f * b).coeffs == ref_mul(fd, f.coeffs, b.coeffs)
            quo, rem = divmod(f, b)
            assert (quo.coeffs, rem.coeffs) == ref_divmod(fd, f.coeffs, b.coeffs)
            assert poly_powmod(f, e, b).coeffs == ref_powmod(fd, f.coeffs, e, b.coeffs)
        assert (b * c) % b == Polynomial(fd, ())


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (2, 2)])
def test_is_irreducible_matches_naive(p, k):
    fd = make_field(p, k)
    for deg in (1, 2, 3, 4):
        if fd.Q**deg > 700:
            break
        for f in all_monic(fd, deg):
            assert is_irreducible(f) == naive_irreducible(f), f.coeffs


def test_is_irreducible_known_cases():
    f3 = make_field(3, 1)
    assert is_irreducible(Polynomial(f3, (1, 0, 1)))       # x**2 + 1
    assert not is_irreducible(Polynomial(f3, (2, 0, 1)))   # x**2 + 2 = (x+1)(x+2)
    f7 = make_field(7, 1)
    assert not is_irreducible(Polynomial(f7, (5, 0, 1)))   # x**2 - 2, 2 is a QR mod 7
    assert is_irreducible(Polynomial(f7, (4, 0, 1)))       # x**2 - 3


def test_binomial_check_anchors():
    f7 = make_field(7, 1)
    assert binomial_irreducible_check(6, f7.element(3)) == (True, (True, True, True))
    verdict, conds = binomial_irreducible_check(6, f7.element(2))
    assert verdict is False and conds[2] is True
    verdict, conds = binomial_irreducible_check(4, f7.element(3))
    assert verdict is False and conds == (True, True, False)


def test_binomial_check_rejects():
    f7 = make_field(7, 1)
    with pytest.raises(ValueError):
        binomial_irreducible_check(1, f7.element(3))
    with pytest.raises(ValueError):
        binomial_irreducible_check(4, f7.element(0))


def test_binomial_check_is_exact_over_f9():
    fd = make_field(3, 2)
    for t in range(2, 7):
        for a in range(1, 9):
            verdict, _ = binomial_irreducible_check(t, fd.element(a))
            assert verdict == naive_irreducible(Polynomial.binomial(fd, t, a))


def test_composed_check_anchor():
    f7 = make_field(7, 1)
    f = Polynomial(f7, (4, 1))  # x - 3
    verdict, conds = composed_irreducible_check(f, 2)
    assert verdict is True and conds == (True, True, True)
    assert is_irreducible(f.compose_power(2))


def test_composed_check_rejects():
    f7 = make_field(7, 1)
    with pytest.raises(ValueError, match="irreducible"):
        composed_irreducible_check(Polynomial(f7, (5, 0, 1)), 2)
    with pytest.raises(ValueError, match="constant term"):
        composed_irreducible_check(Polynomial.x(f7), 2)


def test_composed_check_t1_vacuous():
    f7 = make_field(7, 1)
    f = Polynomial(f7, (4, 1))
    assert composed_irreducible_check(f, 1)[0] is True


def test_pth_root_poly():
    f3 = make_field(3, 1)
    x6 = Polynomial(f3, (0,) * 6 + (1,))
    assert pth_root_poly(x6).coeffs == (0, 0, 1)
    f9 = make_field(3, 2)
    c = f9.generator_index
    # (x + c)**3 has zero derivative; its cube root is x + c**(Q/3)... the
    # coefficient root is c -> c**3 in GF(9)
    lin = Polynomial(f9, (c, 1))
    cube = lin * lin * lin
    back = pth_root_poly(cube)
    assert back.degree() == 1
    assert back * back * back == cube


def test_squarefree_part_anchors():
    f3 = make_field(3, 1)
    a = Polynomial(f3, (1, 1))
    b = Polynomial(f3, (2, 1))
    assert squarefree_part(a * a * b) == a * b
    # x**3 - 1 == (x - 1)**3 in characteristic 3
    x3m1 = Polynomial(f3, (2, 0, 0, 1))
    assert squarefree_part(x3m1) == Polynomial(f3, (2, 1))
    assert squarefree_part(x3m1).degree() == 1


def test_squarefree_part_degree_exhaustive_f3():
    # compare against naive multiplicity counting via roots in a splitting range
    f3 = make_field(3, 1)
    for f in all_monic(f3, 3):
        sf = squarefree_part(f)
        # sf divides f and is squarefree: gcd(sf, sf') == 1 unless sf' == 0
        assert (f % sf).is_zero()
        d = sf.derivative()
        if not d.is_zero():
            assert sf.gcd(d).degree() == 0


def test_roots_in_extension_anchor():
    f3 = make_field(3, 1)
    f9 = make_field(3, 2)
    rts = roots_in_extension(Polynomial(f3, (1, 0, 1)), f9)
    assert [e.idx for e in rts] == [3, 6]
    lin = Polynomial(f3, (2, 1))
    sq = lin * lin
    rts = roots_in_extension(sq, f9)
    assert [e.idx for e in rts] == [1]  # the double root 1, listed once
    assert squarefree_layers(sq) == [(2, lin)]


def sympy_sqf_layers(coeffs, p):
    """[(e, A_e)] of a polynomial over GF(p) (constant term first) from
    sympy's gf_sqf_list, A_e as a monic coefficient tuple, constant first;
    entries of one multiplicity are multiplied together."""
    _, factors = gf_sqf_list([ZZ(c) for c in reversed(coeffs)], p, ZZ)
    by_e = {}
    for g, e in factors:
        by_e[e] = gf_mul(by_e.get(e, [ZZ(1)]), g, p, ZZ)
    return [(e, tuple(int(c) for c in reversed(by_e[e]))) for e in sorted(by_e)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_squarefree_layers_match_sympy_over_prime_fields(p):
    # random polynomials, and products g * h**2 * k**p * r**(p + 1) of
    # random factors, so p-th-power (zero-derivative) factors occur, alone
    # and beside others of their multiplicity
    fd = make_field(p, 1)
    rng = random.Random(40 + p)

    def rand_poly(max_degree):
        deg = rng.randint(0, max_degree)
        return Polynomial(fd, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])

    cases = [rand_poly(8) for _ in range(60)]
    for _ in range(60):
        f = rand_poly(3)
        for e in (2, p, p + 1):
            if rng.random() < 0.6:
                g = rand_poly(2)
                for _ in range(e):
                    f = f * g
        cases.append(f)
    seen = set()
    for f in cases:
        layers = squarefree_layers(f)
        assert [(e, A.coeffs) for e, A in layers] == sympy_sqf_layers(f.coeffs, p), f
        prod = Polynomial(fd, (1,))
        for e, A in layers:
            for _ in range(e):
                prod = prod * A
        assert prod == f.monic(), f
        seen.update(e for e, _ in layers)
    assert {1, 2, p, p + 1} <= seen, seen


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_a_squarefree_f_costs_one_gcd_and_no_division(p, k, monkeypatch):
    # counted by wrappers on the class: squarefree_part returns right after
    # gcd(f, f') = 1, and squarefree_layers finds its one layer from it
    fd = make_field(p, k)
    rng = random.Random(70 + p + k)
    counts = {"gcd": 0, "floordiv": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(Polynomial, "gcd", counting("gcd", Polynomial.gcd))
    monkeypatch.setattr(Polynomial, "__floordiv__", counting("floordiv", Polynomial.__floordiv__))
    seen = 0
    while seen < 20:
        f = Polynomial(fd, [rng.randrange(fd.Q) for _ in range(rng.randint(1, 6))] + [rng.randrange(1, fd.Q)])
        d = f.derivative()
        if d.is_zero() or f.gcd(d).degree() > 0:
            continue
        seen += 1
        for fn, want in ((squarefree_part, f.monic()), (squarefree_layers, [(1, f.monic())])):
            counts.update(gcd=0, floordiv=0)
            assert fn(f) == want
            assert counts == {"gcd": 1, "floordiv": 0}, (fn.__name__, f)


def test_squarefree_layers_edge_cases():
    f9 = make_field(3, 2)
    assert squarefree_layers(Polynomial(f9, (5,))) == []  # a nonzero constant has no factor
    with pytest.raises(ValueError):
        squarefree_layers(Polynomial(f9, ()))
    # a squarefree f is one layer, itself made monic
    f = Polynomial(f9, (1, 2, 0, 4))
    assert squarefree_part(f).degree() == 3 and squarefree_layers(f) == [(1, f.monic())]


def test_eq_and_hash():
    fd = make_field(5, 1)
    assert Polynomial(fd, (1, 2)) == Polynomial(fd, (1, 2, 0))
    assert hash(Polynomial(fd, (1, 2))) == hash(Polynomial(fd, (1, 2, 0)))
    assert Polynomial(fd, (1, 2)) != Polynomial(fd, (2, 2))


def roots_by_evaluation(f, ext):
    """(root index, multiplicity) pairs of f in ext, from evaluating f at
    every element of ext and dividing out each root."""
    emb = get_embedding(f.field, ext)
    g = Polynomial(ext, [emb.map_idx(c) for c in f.coeffs])
    vals = ext.eval_poly_vec(list(g.coeffs), ext.all_indices())
    out = []
    for r in np.nonzero(vals == 0)[0].tolist():
        lin = Polynomial(ext, (ext.neg_idx(r), 1))
        mult, cur = 0, g
        while True:
            quo, rem = divmod(cur, lin)
            if not rem.is_zero():
                break
            mult, cur = mult + 1, quo
        out.append((r, mult))
    return out


def root_idxs(f, ext):
    return [e.idx for e in roots_in_extension(f, ext)]


def layer_root_pairs(f, ext):
    """(root index, multiplicity) pairs of f in ext, each root taking the
    multiplicity of the squarefree layer it lies in."""
    return sorted((r, e) for e, A in squarefree_layers(f) for r in root_idxs(A, ext))


# (p, k of the coefficient field, K of the extension): p = 2 and odd p,
# prime and non-prime coefficient fields, ext equal to and larger than it
ROOT_CELLS = [(2, 1, 1), (2, 1, 5), (2, 2, 4), (2, 3, 6), (3, 1, 1), (3, 1, 4),
              (3, 2, 4), (5, 1, 3), (7, 2, 2), (11, 2, 4), (101, 1, 2)]


@pytest.mark.parametrize("p,k,K", ROOT_CELLS)
def test_roots_in_extension_matches_whole_field_evaluation(p, k, K):
    B, E = make_field(p, k), make_field(p, K)
    rng = random.Random(p * 1000 + k * 10 + K)
    polys = []
    for _ in range(25):
        deg = rng.randint(1, 6)
        polys.append(Polynomial(B, [rng.randrange(B.Q) for _ in range(deg)] + [rng.randrange(1, B.Q)]))
    for _ in range(15):  # products of linear factors, repeats likely
        f = Polynomial(B, (rng.randrange(1, B.Q),))
        for _ in range(rng.randint(1, 5)):
            f = f * Polynomial(B, (rng.randrange(B.Q), 1))
        polys.append(f)
    a = rng.randrange(B.Q)
    lin = Polynomial(B, (B.neg_idx(a), 1))
    power = Polynomial(B, (1,))
    for _ in range(p):
        power = power * lin
    polys.append(power)  # (x - a)**p: zero derivative, one root of multiplicity p
    polys.append(Polynomial(B, (rng.randrange(1, B.Q),)))  # a nonzero constant
    # x**q - x: every root in the subfield B, each once
    polys.append(Polynomial(B, (0,) * B.Q + (1,)) - Polynomial.x(B))
    for f in polys:
        want = roots_by_evaluation(f, E)
        assert root_idxs(f, E) == [r for r, _ in want], f
        assert layer_root_pairs(f, E) == want, f


def test_roots_in_extension_edge_cases():
    f9 = make_field(3, 2)
    f3 = make_field(3, 1)
    # x**q - x splits into every element of the field, each once
    xq = Polynomial(f9, (0, f9.neg_idx(1)) + (0,) * 7 + (1,))
    assert root_idxs(xq, f9) == list(range(9))
    assert root_idxs(Polynomial(f9, (5,)), f9) == []
    assert root_idxs(Polynomial(f3, (1, 0, 1)), f3) == []  # x**2 + 1 has no root in GF(3)
    cube = Polynomial(f3, (1, 1)) * Polynomial(f3, (1, 1)) * Polynomial(f3, (1, 1))
    assert root_idxs(cube, f9) == [2]  # (x + 1)**3
    assert layer_root_pairs(cube, f9) == [(2, 3)]
    f16 = make_field(2, 4)
    x16 = Polynomial(f16, (0, 1) + (0,) * 14 + (1,))
    assert root_idxs(x16, f16) == list(range(16))
    with pytest.raises(ValueError):
        roots_in_extension(Polynomial(f9, ()), f9)


def sympy_roots(coeffs, p):
    """Roots with multiplicities of a polynomial over GF(p) (constant term
    first) from sympy's factorization: the linear factors x + c."""
    _, factors = gf_factor([ZZ(c) for c in reversed(coeffs)], p, ZZ)
    out = {}
    for fac, mult in factors:
        if len(fac) == 2:  # monic x + c
            r = int(-fac[1]) % p
            out[r] = out.get(r, 0) + mult
    return sorted(out.items())


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13, 31]),
    data=st.data(),
)
def test_roots_in_extension_matches_sympy_over_prime_fields(p, data):
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
    coeffs.append(data.draw(st.integers(1, p - 1)))
    fd = make_field(p, 1)
    f, want = Polynomial(fd, coeffs), sympy_roots(coeffs, p)
    assert root_idxs(f, fd) == [r for r, _ in want]
    assert layer_root_pairs(f, fd) == want


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13, 257]),
    data=st.data(),
)
def test_is_irreducible_matches_sympy_over_prime_fields(p, data):
    # about a third of the random inputs are irreducible; a product of two
    # adds reducible inputs that may have no root, like two quadratics. Over
    # odd p every step runs through the Zech table
    fd = make_field(p, 1)

    def draw_poly(max_degree):
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=max_degree))
        return Polynomial(fd, coeffs + [data.draw(st.integers(1, p - 1))])

    f = draw_poly(8)
    if data.draw(st.booleans()):
        f = draw_poly(4) * draw_poly(4)
    want = gf_irreducible_p([ZZ(c) for c in reversed(f.coeffs)], p, ZZ)
    assert is_irreducible(f) == want


def squarefree_monics(fd, rng, max_degree, pool_degrees=(1, 2, 3)):
    """Seeded monic squarefree polynomials over fd of degree <= max_degree:
    products of distinct irreducibles, several of one degree among them,
    and squarefree parts of random products."""
    pool = {d: [f for f in all_monic(fd, d) if is_irreducible(f)] for d in pool_degrees}
    out = []
    for d in pool_degrees:  # as many distinct factors of degree d as fit
        n = min(len(pool[d]), max_degree // d)
        f = Polynomial(fd, (1,))
        for g in rng.sample(pool[d], n):
            f = f * g
        out.append(f)
    for _ in range(12):
        f = Polynomial(fd, (1,))
        for d in rng.sample(pool_degrees, len(pool_degrees)):
            for g in rng.sample(pool[d], min(len(pool[d]), rng.randint(0, 2))):
                if f.degree() + d <= max_degree:
                    f = f * g
        out.append(f)
        deg = rng.randint(1, max_degree)
        g = Polynomial(fd, [rng.randrange(fd.Q) for _ in range(deg)] + [1])
        out.append(squarefree_part(g))
    return [f for f in out if f.degree() >= 1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_distinct_degree_factors_match_sympy(p):
    fd = make_field(p, 1)
    cases = squarefree_monics(fd, random.Random(p), 8)
    assert any(sum(1 for _ in distinct_degree_factors(f)) >= 2 for f in cases)
    for f in cases:
        sym = [ZZ(c) for c in reversed(f.coeffs)]
        assert gf_sqf_part(sym, p, ZZ) == sym
        want = [(d, [int(c) for c in g]) for g, d in gf_ddf_zassenhaus(sym, p, ZZ)]
        got = [(i, list(reversed(comp.coeffs))) for i, comp in distinct_degree_factors(f)]
        assert got == want, f


@pytest.mark.parametrize("p,k,max_degree", [(2, 2, 8), (3, 2, 5)])
def test_distinct_degree_components_by_evaluation(p, k, max_degree):
    # GF(9) stops at degree 5 so that the largest level field, GF(9**5),
    # stays small enough to enumerate
    fd = make_field(p, k)
    for f in squarefree_monics(fd, random.Random(10 * p + k), max_degree, (1, 2)):
        prod, levels = Polynomial(fd, (1,)), []
        for i, comp in distinct_degree_factors(f):
            levels.append(i)
            prod = prod * comp
            E = make_field(p, k * i)
            g = Polynomial(E, [get_embedding(fd, E).map_idx(c) for c in comp.coeffs])
            roots = np.nonzero(E.eval_poly_vec(list(g.coeffs), E.all_indices()) == 0)[0].tolist()
            # squarefree with every root of degree exactly i over fd
            assert len(roots) == comp.degree(), (f, i)
            for r in roots:
                assert min(s for s in range(1, i + 1) if E.pow_idx(r, fd.Q**s) == r) == i
        assert prod == f and levels == sorted(set(levels)), f
