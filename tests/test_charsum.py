"""Multiplicative characters, Weil-bound applicability, r-free indicators.

Hand-derived anchors: the quadratic character of GF(7) is the Legendre
symbol, and sum_a chi2(a**2 + 1) over GF(7) equals -1. The root profile
behind the applicability test is checked against an enumeration oracle that
evaluates f at every element of each extension inside the cap.
"""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from ffwitness import charsum, nt, poly
from ffwitness.charsum import (
    Character,
    characters_of_order,
    incomplete_char_sum,
    is_r_free,
    make_character,
    r_free_indicator_sum,
    weil_applicability,
    weil_audit_instances,
)
from ffwitness.field import DEFAULT_CAP, get_embedding, is_dth_power, make_field
from ffwitness.poly import (
    Polynomial,
    distinct_degree_factors,
    is_irreducible,
    lift,
    poly_powmod,
    roots_in_extension,
    squarefree_layers,
    squarefree_part,
)

TOL = 1e-9


def order(chi):
    n = chi.field.Q - 1
    return n // math.gcd(chi.index, n)


def test_character_basics():
    f7 = make_field(7, 1)
    chi = make_character(f7, 1)
    assert order(chi) == 6 and not chi.is_trivial
    assert chi(f7.element(0)) == 0j
    for a in range(1, 7):
        for b in range(1, 7):
            ab = f7.element(f7.mul_idx(a, b))
            assert cmath.isclose(
                chi(ab), chi(f7.element(a)) * chi(f7.element(b)), abs_tol=TOL
            )


def test_character_rejects_an_argument_outside_its_field():
    f7, f9 = make_field(7, 1), make_field(3, 2)
    chi = make_character(f7, 1)
    for beta in (-1, 7, f9.element(3)):
        with pytest.raises(ValueError):
            chi(beta)
    assert chi(6) == chi(f7.element(6))


def test_trivial_character():
    f7 = make_field(7, 1)
    triv = make_character(f7, 0)
    assert triv.is_trivial and order(triv) == 1
    assert sum(triv(f7.element(a)) for a in range(1, 7)) == pytest.approx(6)


def test_orthogonality():
    f9 = make_field(3, 2)
    for idx in range(1, 8):
        chi = make_character(f9, idx)
        s = sum(chi(f9.element(a)) for a in range(1, 9))
        assert abs(s) < TOL


def test_quadratic_character_is_legendre():
    f7 = make_field(7, 1)
    chi = make_character(f7, 3)
    assert order(chi) == 2
    legendre = {1: 1, 2: 1, 4: 1, 3: -1, 5: -1, 6: -1}
    for a, want in legendre.items():
        assert chi(f7.element(a)) == pytest.approx(want)


def test_characters_of_order():
    f7 = make_field(7, 1)
    for d in (1, 2, 3, 6):
        chis = characters_of_order(f7, d)
        assert len(chis) == nt.phi(d)
        for chi in chis:
            assert order(chi) == d
    with pytest.raises(ValueError):
        characters_of_order(f7, 4)  # 4 does not divide 6


def test_make_character_range():
    f7 = make_field(7, 1)
    with pytest.raises(ValueError):
        make_character(f7, 6)
    with pytest.raises(ValueError):
        make_character(f7, -1)


# -- Weil applicability --------------------------------------------------------

def test_weil_hand_anchor_f7():
    # sum_a chi2(a**2 + 1) = chi2(1) + 2 chi2(2) + 2 chi2(5) + 2 chi2(3) = -1
    f7 = make_field(7, 1)
    chi = make_character(f7, 3)
    f = Polynomial(f7, (1, 0, 1))
    res = incomplete_char_sum(chi, f, f7)
    assert res.value.real == pytest.approx(-1.0, abs=TOL)
    assert res.value.imag == pytest.approx(0.0, abs=TOL)
    assert res.terms == 7
    assert res.applicable is True
    assert res.bound == pytest.approx(7**0.5)
    assert abs(res.value) <= res.bound + 1e-6


def test_weil_applicable_simple_root():
    # alpha - x over GF(9) summed along GF(3): the root generates GF(9), the
    # quadratic character is nontrivial on its norm group
    f3, f9 = make_field(3, 1), make_field(3, 2)
    alpha = f9.generator_index
    f = Polynomial(f9, (f9.neg_idx(alpha), 1))
    chi = make_character(f9, 4)
    app = weil_applicability(chi, f, f3)
    assert app.applicable is True
    assert app.m == 2 and app.D == 1
    assert app.bound == pytest.approx(3**0.5)


def test_weil_inapplicable_intermediate_subfield():
    # alpha inside GF(9) within GF(81): every coset member is a square, the
    # quadratic character is trivial on the norm group of GF(9)*
    f3, f9, f81 = make_field(3, 1), make_field(3, 2), make_field(3, 4)
    alpha = min(
        set(get_embedding(f9, f81).image_indices())
        - set(get_embedding(f3, f81).image_indices())
    )
    f = Polynomial(f81, (f81.neg_idx(alpha), 1))
    chi = make_character(f81, 40)
    assert order(chi) == 2
    app = weil_applicability(chi, f, f3)
    assert app.applicable is False


def test_weil_trivial_character_inapplicable():
    f7 = make_field(7, 1)
    f = Polynomial(f7, (1, 0, 1))
    app = weil_applicability(make_character(f7, 0), f, f7)
    assert app.applicable is False
    # x**2 + 1 is irreducible over GF(7), so D = 2 and the bound is sqrt(7)
    assert app.D == 2 and app.bound == pytest.approx(7**0.5, abs=TOL)


def test_weil_constant_f_inapplicable():
    f7 = make_field(7, 1)
    app = weil_applicability(make_character(f7, 3), Polynomial(f7, (4,)), f7)
    assert app.applicable is False


# -- root profile: distinct degrees, norm images, one closed form per factor ---

def norm_image_order_by_enumeration(ext, down_Q, q, j):
    # the logs of GF(q**j)* are the multiples of n/(q**j - 1); the norm down
    # to GF(down_Q) multiplies them by n/(down_Q - 1)
    n = ext.Q - 1
    factor = (n // (q**j - 1)) * (n // (down_Q - 1)) % n
    return int(np.unique((np.arange(q**j - 1, dtype=np.int64) * factor) % n).size)


def test_norm_image_order_closed_form_matches_enumeration():
    checked = 0
    for p, k_base, m, i in [(2, 1, 2, 1), (2, 1, 2, 3), (2, 2, 2, 2), (2, 1, 3, 2), (3, 1, 2, 2),
                            (3, 1, 2, 3), (3, 2, 2, 2), (5, 1, 2, 2), (5, 1, 3, 1), (7, 1, 2, 2),
                            (11, 1, 2, 2), (13, 1, 1, 2)]:
        ext = make_field(p, k_base * m * i)
        q = p**k_base
        for down_k in range(k_base, k_base * m * i + 1, k_base):
            if (k_base * m * i) % down_k:
                continue
            for j in range(1, m * i + 1):
                if (m * i) % j:
                    continue
                want = norm_image_order_by_enumeration(ext, p**down_k, q, j)
                assert charsum._norm_image_order(ext.Q, p**down_k, q, j) == want
                checked += 1
    assert checked > 60


def profile_by_enumeration(f, base):
    """Sorted (multiplicity, norm image order) per root of f, over the
    coefficient field B, from evaluating f at every element of GF(B.Q**i)
    for each i <= deg f; needs every GF(B.Q**i) inside the cap."""
    B = f.field
    q, m = base.Q, B.k // base.k
    out = []
    for i in range(1, f.degree() + 1):
        E = make_field(B.p, B.k * i)
        g = Polynomial(E, [get_embedding(B, E).map_idx(c) for c in f.coeffs])
        vals = E.eval_poly_vec(list(g.coeffs), E.all_indices())
        for r in np.nonzero(vals == 0)[0].tolist():
            # only roots of degree exactly i over B; smaller ones came earlier
            if min(s for s in range(1, i + 1) if E.pow_idx(r, B.Q**s) == r) != i:
                continue
            lin = Polynomial(E, (E.neg_idx(r), 1))
            mult, cur = 0, g
            while (cur % lin).is_zero():
                mult, cur = mult + 1, cur // lin
            j = min(s for s in range(1, m * i + 1) if E.pow_idx(r, q**s) == r)
            out.append((mult, norm_image_order_by_enumeration(E, B.Q, q, j)))
    return sorted(out)


def smallest_irreducibles(B, d, count=2):
    """The first `count` monic irreducibles of degree d over B, by index."""
    out = []
    for tail in itertools.product(range(B.Q), repeat=d):
        f = Polynomial(B, tail[::-1] + (1,))
        if is_irreducible(f):
            out.append(f)
            if len(out) == count:
                return out
    raise AssertionError("too few irreducibles")


def verdict_from_classes(classes, chi):
    return any((mult * chi.index) % order != 0 for mult, order in classes)


def test_root_profile_two_irreducible_quadratics_over_f9():
    # (x**2 + ...)(x**2 + ...) with no root in GF(9): both quadratics split
    # in GF(81), whose four roots generate GF(81) over GF(3)
    f3, f9 = make_field(3, 1), make_field(3, 2)
    f = Polynomial(f9, (1, 0, 6, 0, 1))
    classes, shortcut, D = charsum._root_profile(f, f3, DEFAULT_CAP)
    assert sorted(classes) == [(1, 8)] * 4 and shortcut is False and D == 4
    assert sorted(classes) == profile_by_enumeration(f, f3)
    for j in range(1, 8):
        assert weil_applicability(make_character(f9, j), f, f3).applicable is True


# (p, k of the base field, m = [B : base], largest degree); GF(B.Q**deg)
# fits the cap, and GF(9) stops at degree 5 to keep the oracle quick
PROFILE_CELLS = [(2, 1, 2, 6), (2, 1, 3, 6), (3, 1, 1, 6), (3, 1, 2, 5), (5, 1, 1, 6), (2, 2, 1, 6)]


def profile_polys(B, rng, max_deg):
    """Products of irreducibles of degree 2 and 3 over B (two of one degree
    share a distinct-degree component), then 12 random polynomials of
    degree 4 to max_deg drawn from rng."""
    q2, q3 = smallest_irreducibles(B, 2), smallest_irreducibles(B, 3)
    polys = [q2[0] * q2[1], q2[0] * q3[0]]
    if max_deg >= 6:
        polys.append(q3[0] * q3[1])
    for _ in range(12):
        deg = rng.randint(4, max_deg)
        if rng.random() < 0.5:
            f = Polynomial(B, [rng.randrange(B.Q) for _ in range(deg)] + [rng.randrange(1, B.Q)])
        else:  # a product of small factors, so repeated and same-degree factors occur
            f = Polynomial(B, (rng.randrange(1, B.Q),))
            while f.degree() < deg:
                d = rng.randint(1, min(3, deg - f.degree()))
                f = f * Polynomial(B, [rng.randrange(B.Q) for _ in range(d)] + [1])
        polys.append(f)
    return polys


@pytest.mark.parametrize("p,k,m,max_deg", PROFILE_CELLS)
def test_root_profile_matches_enumeration_degrees_4_to_6(p, k, m, max_deg):
    base, B = make_field(p, k), make_field(p, k * m)
    rng = random.Random(p * 100 + k * 10 + m)
    for f in profile_polys(B, rng, max_deg):
        classes, shortcut, D = charsum._root_profile(f, base, DEFAULT_CAP)
        want = profile_by_enumeration(f, base)
        # the shortcut marks a level, of some multiplicity layer, decided
        # from its one irreducible factor
        levels = [comp.degree() == i for _, A in squarefree_layers(f) for i, comp in distinct_degree_factors(A)]
        assert sorted(classes) == want, f
        assert shortcut is any(levels), f
        assert D == squarefree_part(f).degree(), f
        for idx in rng.sample(range(1, B.Q - 1), min(6, B.Q - 2)):
            chi = make_character(B, idx)
            assert weil_applicability(chi, f, base).applicable is verdict_from_classes(want, chi), (f, idx)


BEYOND_CAP_CELLS = [(3, 1, 2), (2, 1, 2), (2, 1, 3), (5, 1, 1)]


def beyond_cap_polys(B, rng):
    """Two irreducible quadratics over B: their product is one level of two
    factors, undecided beyond the cap; the square of one is a single factor
    of multiplicity 2, decided at every cap. Then 40 random polynomials of
    degree 2 to 5 drawn from rng."""
    quad = smallest_irreducibles(B, 2)
    polys = [quad[0] * quad[1], quad[0] * quad[0]]
    for _ in range(40):
        deg = rng.randint(2, 5)
        if rng.random() < 0.5:
            f = Polynomial(B, [rng.randrange(B.Q) for _ in range(deg)] + [rng.randrange(1, B.Q)])
        else:
            f = Polynomial(B, (1,))
            while f.degree() < deg:
                d = rng.randint(1, min(2, deg - f.degree()))
                f = f * Polynomial(B, [rng.randrange(B.Q) for _ in range(d)] + [1])
        polys.append(f)
    return polys


@pytest.mark.parametrize("p,k,m", BEYOND_CAP_CELLS)
def test_beyond_cap_shortcut_agrees_with_default_cap(p, k, m):
    # with the cap below GF(B.Q**2) or GF(B.Q**3), levels of degree >= 2 or
    # >= 3 are beyond it: a level of one irreducible factor is still decided
    # in closed form, a level of several factors of one degree is undecided
    # (None), and a decided verdict must equal the one at the default cap
    base, B = make_field(p, k), make_field(p, k * m)
    seen = {"shortcut_true": 0, "undecided": 0}
    for f in beyond_cap_polys(B, random.Random(7 * p + m)):
        full, _, _ = charsum._root_profile(f, base, DEFAULT_CAP)
        for cap in (B.Q**2 - 1, B.Q**3 - 1):
            classes, _, _ = charsum._root_profile(f, base, cap)
            if (None, None) not in classes:
                assert sorted(classes) == sorted(full), (f, cap)
            for idx in range(1, B.Q - 1):
                chi = make_character(B, idx)
                got = weil_applicability(chi, f, base, cap=cap)
                want = weil_applicability(chi, f, base).applicable
                assert want is verdict_from_classes(full, chi)
                if got.applicable is None:
                    seen["undecided"] += 1
                    assert (None, None) in classes
                else:
                    assert got.applicable is want, (f, cap, idx)
                    if got.applicable and got.shortcut_used:
                        seen["shortcut_true"] += 1
    assert seen["shortcut_true"] > 0 and seen["undecided"] > 0, seen


def verdict_with_undecided(classes, chi):
    # the per-class rule: True when some decided class covers chi, else None
    # when some class is undecided, else False
    decided = [c for c in classes if c != (None, None)]
    if verdict_from_classes(decided, chi):
        return True
    return None if len(decided) < len(classes) else False


@pytest.mark.parametrize("p,k,m,max_deg", PROFILE_CELLS)
def test_index_rule_gives_the_class_verdict_at_every_index(p, k, m, max_deg):
    # weil_applicability decides chi by whether the lcm L of o / gcd(mult, o)
    # divides chi's index; over the polynomials of the two tests above, at
    # the default cap and at the lowered ones, every index must get the
    # verdict of the per-class rule, and all characters of one order one
    # verdict
    base, B = make_field(p, k), make_field(p, k * m)
    n = B.Q - 1
    cells = [(f, DEFAULT_CAP) for f in profile_polys(B, random.Random(p * 100 + k * 10 + m), max_deg)]
    if (p, k, m) in BEYOND_CAP_CELLS:
        polys = beyond_cap_polys(B, random.Random(7 * p + m))
        cells += [(f, cap) for f in polys for cap in (B.Q**2 - 1, B.Q**3 - 1)]
    seen = {True: 0, False: 0, None: 0}
    for f, cap in cells:
        classes, _, _ = charsum._root_profile(f, base, cap)
        got = {idx: weil_applicability(Character(B, idx), f, base, cap=cap).applicable for idx in range(n)}
        assert got[0] is False
        for idx in range(1, n):
            assert got[idx] is verdict_with_undecided(classes, Character(B, idx)), (f, cap, idx)
            seen[got[idx]] += 1
        for d in nt.factorize(n).divisors():
            assert len({got[chi.index] for chi in characters_of_order(B, d)}) == 1, (f, cap, d)
    # summed over GF(3) or GF(4) itself, every verdict here is True
    assert seen[True] > 0 and (seen[False] > 0 or B.Q < 5), seen
    if (p, k, m) in BEYOND_CAP_CELLS:
        assert seen[None] > 0, seen


def test_single_factor_levels_are_decided_beyond_the_cap():
    # over GF(9) summed along GF(3): an irreducible cubic from GF(3), whose
    # roots generate GF(27) and not GF(9**3), with GF(9**3) beyond the cap;
    # and the square of an irreducible quadratic with GF(81) beyond it
    f3, f9 = make_field(3, 1), make_field(3, 2)
    emb = get_embedding(f3, f9)
    cubic = Polynomial(f9, [emb.map_idx(c) for c in (1, 2, 0, 1)])  # x**3 + 2x + 1
    quad = smallest_irreducibles(f9, 2)[0]
    assert is_irreducible(cubic)
    for f, cap in [(cubic, 9**3 - 1), (quad * quad, 9**2 - 1)]:
        for idx in range(1, 8):
            chi = make_character(f9, idx)
            got = weil_applicability(chi, f, f3, cap=cap).applicable
            assert got is not None and got is weil_applicability(chi, f, f3).applicable, (f, idx)


def test_one_irreducible_factor_builds_no_field(monkeypatch):
    f3, f9 = make_field(3, 1), make_field(3, 2)
    quad = smallest_irreducibles(f9, 2)[0]
    want = profile_by_enumeration(quad, f3)

    def refuse(*args, **kwargs):
        raise AssertionError("the root profile built a field")

    monkeypatch.setattr(charsum, "make_field", refuse)
    classes, shortcut, D = charsum._root_profile(quad, f3, DEFAULT_CAP)
    assert sorted(classes) == want and shortcut is True and D == 2


def frobenius_degree_by_powmod(P, q, span):
    # the rule the profile used to run: the least s | span with
    # x**(q**s) = x mod P
    x = Polynomial.x(P.field) % P
    return next(s for s in nt.factorize(span).divisors() if poly_powmod(x, q**s, P) == x)


def irreducibles_from_subfields(base, B, rng, max_deg=4, per_degree=3):
    """Monic irreducibles over B of degree 1 to max_deg, drawn over each
    intermediate field GF(q**s), s | m, and lifted to B when they stay
    irreducible there, so some have all coefficients in a proper subfield."""
    q, m = base.Q, B.k // base.k
    out = []
    for s in nt.factorize(m).divisors():
        F = make_field(B.p, base.k * s)
        for d in range(1, max_deg + 1):
            found = 0
            while found < per_degree:
                P = Polynomial(F, [rng.randrange(F.Q) for _ in range(d)] + [1])
                if is_irreducible(P):
                    found += 1
                    P = lift(P, B)
                    if is_irreducible(P):
                        out.append(P)
    return out


# (p, k of the base field, m = [B : base]): both characteristics, m in {2, 3, 4}
DEGREE_CELLS = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2)]


@pytest.mark.parametrize("p,k,m", DEGREE_CELLS)
def test_single_factor_degree_from_coefficient_logs_matches_frobenius(p, k, m):
    # a root of degree j over GF(q) has a minimal polynomial over GF(q**m) of
    # degree i = j / gcd(j, m) whose coefficients generate GF(q**gcd(j, m))
    # (Lidl-Niederreiter, Thm 3.46), so j = i * c with c read from the logs
    base, B = make_field(p, k), make_field(p, k * m)
    q = base.Q
    seen_c = set()
    for P in irreducibles_from_subfields(base, B, random.Random(31 * p + 7 * k + m)):
        i = P.degree()
        c = charsum._subfield_degree(B, P.coeffs, q, m)
        assert i * c == frobenius_degree_by_powmod(P, q, m * i), P
        classes, shortcut, D = charsum._root_profile(P, base, DEFAULT_CAP)
        assert classes == ((1, charsum._norm_image_order(B.Q**i, B.Q, q, i * c)),) * i
        assert shortcut is True and D == i
        seen_c.add(c)
    assert seen_c == set(nt.factorize(m).divisors()), seen_c


def test_cubic_from_gf2_over_gf4_has_degree_3():
    # x**3 + x + 1 stays irreducible over GF(4) (gcd(3, 2) = 1); its roots
    # generate GF(8) over GF(2), so j = 3, not 3 * [GF(4) : GF(2)] = 6
    f2, f4 = make_field(2, 1), make_field(2, 2)
    P = lift(Polynomial(f2, (1, 1, 0, 1)), f4)
    assert is_irreducible(P)
    assert charsum._subfield_degree(f4, P.coeffs, 2, 2) == 1
    assert frobenius_degree_by_powmod(P, 2, 6) == 3
    classes, _, _ = charsum._root_profile(P, f2, DEFAULT_CAP)
    assert classes == ((1, charsum._norm_image_order(64, 4, 2, 3)),) * 3
    assert sorted(classes) == profile_by_enumeration(P, f2)


@pytest.mark.parametrize("p,k,m", DEGREE_CELLS)
def test_split_root_degree_from_log_matches_frobenius(p, k, m):
    # a level of several factors of degree i: each root found in GF(Q**i)
    # gets its degree over GF(q) from its log, which must be the least
    # s | m*i with zeta**(q**s) = zeta
    base, B = make_field(p, k), make_field(p, k * m)
    q = base.Q
    by_degree = {}
    for P in irreducibles_from_subfields(base, B, random.Random(17 * p + 5 * k + m), max_deg=3):
        by_degree.setdefault(P.degree(), []).append(P)
    x = Polynomial.x(B)
    polys = [x * (x - Polynomial.constant(B, 1))]  # the root 0 among them
    polys += [a * b for group in by_degree.values() for a, b in itertools.combinations(group, 2) if a != b]
    checked = 0
    for f in polys:
        for i, comp in distinct_degree_factors(squarefree_part(f)):
            if comp.degree() == i or B.Q**i > 1 << 16:
                continue
            ext = make_field(p, B.k * i)
            for zeta in roots_in_extension(comp, ext):
                want = next(s for s in nt.factorize(m * i).divisors() if ext.pow_idx(zeta.idx, q**s) == zeta.idx)
                assert charsum._subfield_degree(ext, [zeta.idx], q, m * i) == want, (f, zeta.idx)
                checked += 1
    assert checked > 20, checked


@pytest.mark.parametrize("p,k,m,max_deg", [(2, 1, 2, 6), (3, 1, 2, 5), (5, 1, 1, 6)])
def test_squarefree_f_computes_no_multiplicity(monkeypatch, p, k, m, max_deg):
    # a squarefree f is the single layer A_1 = f monic, found by one
    # squarefree_part, and every root takes multiplicity 1 from it
    base, B = make_field(p, k), make_field(p, k * m)
    polys = profile_polys(B, random.Random(p + k + m), max_deg)
    polys = [f for f in polys if squarefree_part(f).degree() == f.degree()]
    levels = [comp.degree() == i for f in polys for i, comp in distinct_degree_factors(f.monic())]
    assert True in levels and False in levels  # both kinds of level run
    calls = []
    squarefree_part_ = poly.squarefree_part

    def counted(g):
        calls.append(g)
        return squarefree_part_(g)

    monkeypatch.setattr(poly, "squarefree_part", counted)
    for f in polys:
        calls.clear()
        assert squarefree_layers(f) == [(1, f.monic())] and len(calls) == 1, f
        calls.clear()
        classes, _, D = charsum._root_profile(f, base, DEFAULT_CAP)
        assert len(calls) == 1, f
        assert sorted(classes) == profile_by_enumeration(f, base) and D == f.degree(), f


def test_same_degree_factors_of_different_multiplicity_are_decided_below_the_cap():
    # P**2 R over GF(9), P and R irreducible quadratics: the distinct-degree
    # level 2 of the squarefree part PR holds two factors, but the layers
    # A_1 = R and A_2 = P each hold one, so at cap 9, below GF(81), every
    # root class is decided and equals the enumeration at the default cap
    f3, f9 = make_field(3, 1), make_field(3, 2)
    P, R = smallest_irreducibles(f9, 2)
    f = P * P * R
    classes, shortcut, D = charsum._root_profile(f, f3, 9)
    assert (None, None) not in classes and shortcut is True and D == 4
    assert sorted(classes) == profile_by_enumeration(f, f3)
    for idx in range(1, 8):
        chi = make_character(f9, idx)
        got = weil_applicability(chi, f, f3, cap=9).applicable
        assert got is True and got is weil_applicability(chi, f, f3).applicable, idx


@pytest.mark.parametrize("p,k,m", [(2, 1, 2), (3, 1, 1), (5, 1, 1)])
def test_repeated_roots_in_both_kinds_of_level_match_enumeration(p, k, m):
    # (x - a)**2 (x - b) P**2: level 1 holds two factors, one repeated, and
    # level 2 is the one irreducible P of multiplicity 2; P**2 R (x - a):
    # level 2 holds two factors, one repeated
    base, B = make_field(p, k), make_field(p, k * m)
    x = Polynomial.x(B)
    lin_a, lin_b = x - Polynomial.constant(B, 1), x - Polynomial.constant(B, 2)
    P, R = smallest_irreducibles(B, 2)
    for f in [lin_a * lin_a * lin_b * P * P, P * P * R * lin_a]:
        assert squarefree_part(f).degree() < f.degree()
        classes, _, D = charsum._root_profile(f, base, DEFAULT_CAP)
        assert sorted(classes) == profile_by_enumeration(f, base), f
        assert any(mult == 2 for mult, _ in classes) and D == squarefree_part(f).degree()


# -- r-free indicators ----------------------------------------------------------

def test_is_r_free_anchors():
    f7 = make_field(7, 1)
    assert is_r_free(f7.element(3), 2) is True
    assert is_r_free(f7.element(2), 2) is False
    assert is_r_free(f7.element(3), 1) is True
    # for prime r this matches "not an r-th power"
    for a in range(1, 7):
        el = f7.element(a)
        for r in (2, 3):
            assert is_r_free(el, r) == (not is_dth_power(el, r))


def test_is_r_free_requires_divisor():
    f7 = make_field(7, 1)
    with pytest.raises(ValueError):
        is_r_free(f7.element(3), 4)


def test_r_free_indicator_sum_anchors():
    f7 = make_field(7, 1)
    assert r_free_indicator_sum(f7.element(3), 2) == pytest.approx(2.0, abs=TOL)
    assert r_free_indicator_sum(f7.element(2), 2) == pytest.approx(0.0, abs=TOL)
    assert r_free_indicator_sum(f7.element(5), 1) == pytest.approx(1.0, abs=TOL)


def test_r_free_indicator_matches_closed_form_f9():
    f9 = make_field(3, 2)
    for a in range(1, 9):
        el = f9.element(a)
        for r in (1, 2, 4, 8):
            got = r_free_indicator_sum(el, r)
            want = r / nt.phi(r) if is_r_free(el, r) else 0.0
            assert got == pytest.approx(want, abs=1e-9 * nt.tau(r) * r)


def scalar_char_sum(chi, f, base):
    """Sum of chi(f(a)) over the embedded base field, term by term: Horner
    with the scalar ops, log_idx and cmath, with Python ints throughout."""
    B = chi.field
    n = B.Q - 1
    emb = get_embedding(base, B)
    total = 0j
    for a in range(base.Q):
        x, y = emb.map_idx(a), 0
        for c in reversed(f.coeffs):
            y = B.add_idx(B.mul_idx(y, x), c)
        if y:
            total += cmath.exp(2j * cmath.pi * ((chi.index * B.log_idx(y)) % n) / n)
    return total


def test_char_sum_with_a_large_index_matches_python_ints():
    # on GF(251**2), Q - 1 = 63000, a 32-bit index * log wraps
    base, B = make_field(251, 1), make_field(251, 2)
    chi = make_character(B, B.Q - 2)
    f = Polynomial(B, [40000, 0, 62000, 1])
    got = incomplete_char_sum(chi, f, base)
    assert abs(got.value - scalar_char_sum(chi, f, base)) < 1e-7 and got.terms == base.Q


@pytest.mark.parametrize("p,k,m", [(7, 1, 1), (5, 1, 2), (2, 2, 2), (3, 1, 3), (2, 3, 2), (13, 1, 2)])
def test_incomplete_char_sum_matches_the_scalar_sum(p, k, m):
    base, B = make_field(p, k), make_field(p, k * m)
    rng = random.Random(p * 100 + k * 10 + m)
    for _ in range(12):
        deg = rng.randint(1, 4)
        f = Polynomial(B, [rng.randrange(B.Q) for _ in range(deg)] + [rng.randrange(1, B.Q)])
        chi = make_character(B, rng.randrange(B.Q - 1))
        got = incomplete_char_sum(chi, f, base)
        assert abs(got.value - scalar_char_sum(chi, f, base)) < 1e-9


# -- the one kernel --------------------------------------------------------------

@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (2, 8), (3, 5), (251, 2)])
def test_char_sums_equals_the_per_index_gather_bit_for_bit(p, k):
    fd = make_field(p, k)
    n = fd.Q - 1
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    rng = np.random.default_rng(fd.Q)
    for size in (0, 1, 2, 7, 64, 300):
        logs = rng.integers(-1, n, size=size)
        logs[: size // 4] = -1  # zeros among the values
        indices = np.concatenate([[0], rng.integers(0, n, size=9), [n - 1, 1, 1]])  # repeats
        got = charsum.char_sums(fd, logs, indices)
        assert got.shape == indices.shape
        for j, value in zip(indices, got):
            want = omega[(int(j) * logs[logs >= 0]) % n].sum()
            assert value == want, (p, k, size, j)


# -- audit sampler ---------------------------------------------------------------

def test_audit_rows_deterministic():
    rows1 = weil_audit_instances(7, 2, 8, seed=0)
    rows2 = weil_audit_instances(7, 2, 8, seed=0)
    sig1 = [(r.f.coeffs, r.chi.index) for r in rows1]
    sig2 = [(r.f.coeffs, r.chi.index) for r in rows2]
    assert sig1 == sig2
    rows3 = weil_audit_instances(7, 2, 8, seed=1)
    assert sig1 != [(r.f.coeffs, r.chi.index) for r in rows3]


@pytest.mark.parametrize("count", [0, -3])
def test_audit_of_no_applicable_draw_is_refused(count):
    # the sampler would stop at once, and an audit of nothing passes vacuously
    with pytest.raises(ValueError, match="count must be >= 1"):
        weil_audit_instances(7, 2, count)


def test_audit_rows_reach_count_and_hold():
    rows = weil_audit_instances(7, 2, 12, seed=0)
    app = [r for r in rows if r.result.applicable is True]
    assert len(app) >= 12
    for r in app:
        assert r.ok is True
    for r in rows:
        if r.result.applicable is not True:
            assert r.ok is None
