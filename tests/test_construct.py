"""Set construction pipeline, witness search, surveys, verification.

Frozen values were hand-checked: the q = 7 pipeline gives the full coset of
size 7 whose first non-square has index 9, and q = 81 reaches t = 4 with
|S| = 21.
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from ffwitness import charsum, construct, field, nt, poly
from ffwitness.charsum import characters_of_order, incomplete_char_sum, primitive_weil_audit
from ffwitness.field import CapExceeded, get_embedding, is_dth_power, make_field
from ffwitness.construct import (
    audit_bounds_rows,
    base_image_mask,
    build_set,
    construct_pipeline,
    coset_power_gcds,
    coulter_kosick_check,
    find_non_dth_power,
    hm_artin_schreier_check,
    mn_conjecture_search,
    primitive_lower_bound,
    primitive_set_search,
    survey_rows,
    theorem_conditions_check,
    verify_report,
)


def test_build_set_matches_definition():
    f9 = make_field(3, 2)
    f3 = make_field(3, 1)
    alpha = f9.generator_index
    s = build_set(f9.element(alpha), 2, f3)
    want = set()
    emb = get_embedding(f3, f9)
    for x in range(3):
        xi = emb.map_idx(x)
        want.add(f9.sub_idx(alpha, f9.mul_idx(xi, xi)))
    assert {e.idx for e in s} == want
    assert len(s) == 1 + (3 - 1) // math.gcd(2, 3 - 1)


def test_find_non_dth_power():
    f7 = make_field(7, 1)
    els = [f7.element(i) for i in (1, 2, 3)]
    w = find_non_dth_power(els, 2)
    assert w is not None and w.idx == 3
    assert find_non_dth_power([f7.element(i) for i in (1, 2, 4)], 2) is None
    with pytest.raises(ValueError):
        find_non_dth_power([f7.element(0), f7.element(3)], 2)
    with pytest.raises(ValueError):
        find_non_dth_power(els, 4)


def test_pipeline_q7():
    rep = construct_pipeline(7, 1, 2, 2)
    assert rep.spec.t == 1 and rep.spec.r == 3
    assert rep.conditions == (True, True, True, True)
    assert rep.guaranteed and rep.verified
    assert rep.cardinality == 7
    assert rep.certificate == 9
    assert rep.mode == "non_dth_power"
    # the certificate really is a non-square of GF(49)
    big = make_field(7, 2)
    assert not is_dth_power(big.element(rep.certificate), 2)


def test_pipeline_q81():
    rep = construct_pipeline(3, 4, 2, 2)
    assert rep.spec.t == 4
    assert rep.cardinality == 21 == 1 + 80 // math.gcd(4, 80)
    assert rep.guaranteed and rep.verified


def test_pipeline_q257():
    rep = construct_pipeline(257, 1, 2, 2)
    assert rep.spec.t == 8
    assert rep.cardinality == 33
    assert rep.verified


def test_pipeline_q3_conditions_fail_but_witness_exists():
    rep = construct_pipeline(3, 1, 2, 2)
    assert rep.conditions == (True, True, True, False)  # t**2 h**2 = 4 > 3
    assert not rep.guaranteed
    assert rep.verified
    assert rep.cardinality == 3


def test_pipeline_forced_t():
    rep = construct_pipeline(7, 1, 2, 2, t=2)
    assert rep.spec.t == 2
    assert rep.cardinality == 1 + 6 // 2


def test_pipeline_rejects_bad_input():
    with pytest.raises(ValueError):
        construct_pipeline(7, 1, 1, 2)  # h must be >= 2
    with pytest.raises(ValueError):
        construct_pipeline(3, 1, 2, 5)  # 5 does not divide 8


def test_theorem_conditions_check_agrees_with_pipeline():
    for args in ((7, 1, 2, 2), (3, 4, 2, 2), (3, 1, 2, 2)):
        rep = construct_pipeline(*args)
        assert theorem_conditions_check(rep.spec) == rep.conditions


def test_cardinality_formula_across_small_range():
    for q in nt.prime_powers_in(3, 50):
        p, k = nt.is_prime_power(q)
        if (q * q - 1) % 2:
            continue
        rep = construct_pipeline(p, k, 2, 2)
        assert rep.cardinality == 1 + (q - 1) // math.gcd(rep.spec.t, q - 1)


def test_coset_power_gcds_clean_at_h2():
    g = coset_power_gcds(3, 2, 1)
    mask = base_image_mask(3, 2)
    assert mask.sum() == 3
    assert np.all(g[~mask] == 1)


def test_coset_power_gcds_intermediate_subfield():
    # alpha from GF(9) inside GF(81): every coset member is a square, the
    # gcd of coset logs is (81-1)/(9-1) = 10
    g = coset_power_gcds(3, 4, 1)
    f81 = make_field(3, 4)
    f9_img = set(get_embedding(make_field(3, 2), f81).image_indices())
    f3_img = set(get_embedding(make_field(3, 1), f81).image_indices())
    for a in sorted(f9_img - f3_img):
        assert g[a] == 10
    outside = set(range(81)) - f9_img
    assert all(g[a] == 1 for a in outside)


def test_coset_scans_reject_h_below_2_at_once():
    # at h = 1 every alpha lies in the base field; the q whole-field passes
    # are refused, not run
    start = time.perf_counter()
    with pytest.raises(ValueError, match="h must be >= 2"):
        coset_power_gcds(8191, 1, 1)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("fn", [base_image_mask, primitive_weil_audit])
def test_whole_field_scans_reject_non_prime_power(fn):
    args = {primitive_weil_audit: (6, 2, 1, 9)}.get(fn, (6, 2))
    with pytest.raises(ValueError, match="not a prime power"):
        fn(*args)


def test_strict_t_matches_strict_inequality():
    # r**e * h < sqrt(q), compared exactly as (r**e * h)**2 < q
    for r in (2, 3, 5, 7):
        for h in (1, 2, 3):
            for q in range(3, 400):
                e = 0
                while (r ** (e + 1) * h) ** 2 < q:
                    e += 1
                assert construct._strict_t(r, h, q) == r**e


def test_base_image_mask():
    mask = base_image_mask(7, 2)
    big = make_field(7, 2)
    img = set(get_embedding(make_field(7, 1), big).image_indices())
    assert {i for i in range(49) if mask[i]} == img


def test_coulter_kosick():
    assert coulter_kosick_check(7) is True
    assert coulter_kosick_check(9) is True
    with pytest.raises(ValueError):
        coulter_kosick_check(5)
    with pytest.raises(ValueError):
        coulter_kosick_check(8)


def test_hm_artin_schreier_smallest():
    assert hm_artin_schreier_check(3) is True
    with pytest.raises(ValueError):
        hm_artin_schreier_check(2)


def _linear_solve_artin_schreier_root(p):
    """GF(p**p), a and a root alpha of x**p - x - a found without root
    finding: one solution of the Frobenius-minus-identity system over
    GF(p), by Gaussian elimination with free variables 0."""
    big, fp = make_field(p, p), make_field(p, 1)
    a = next(c for c in range(2, p) if not is_dth_power(fp.element(c), 2))
    # column j: the coefficients of (x**j)**p - x**j; x**j has index p**j
    cols = [big.coeffs_of(big.pow_idx(p**j, p)) for j in range(p)]
    rows = [[(cols[j][i] - (i == j)) % p for j in range(p)] + [a if i == 0 else 0] for i in range(p)]
    pivots = []
    for c in range(p):
        r = len(pivots)
        sel = next((i for i in range(r, p) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(p):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    assert all(row[p] == 0 for row in rows[len(pivots):]), "inconsistent system"
    sol = [0] * p
    for i, c in enumerate(pivots):
        sol[c] = rows[i][p]
    return big, a, sum(c * p**i for i, c in enumerate(sol))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hm_artin_schreier_matches_the_linear_solve(p, monkeypatch):
    big, a, alpha = _linear_solve_artin_schreier_root(p)
    assert big.sub_idx(big.pow_idx(alpha, p), alpha) == a
    shifts = {big.add_idx(alpha, c) for c in range(p)}
    found = []
    roots_in_extension = construct.roots_in_extension

    def recorded(f, ext):
        roots = roots_in_extension(f, ext)
        found.append({r.idx for r in roots})
        return roots

    monkeypatch.setattr(construct, "roots_in_extension", recorded)
    verdict = hm_artin_schreier_check(p)
    assert found == [shifts]
    assert verdict is all(not is_dth_power(big.element(s), 2) for s in shifts)


def test_hm_artin_schreier_rejects_a_lost_root(monkeypatch):
    # a root finder that misses one of the p roots is broken arithmetic,
    # never a verdict on the roots it did find
    roots_in_extension = construct.roots_in_extension
    monkeypatch.setattr(construct, "roots_in_extension", lambda f, ext: roots_in_extension(f, ext)[1:])
    with pytest.raises(RuntimeError, match="4 roots"):
        hm_artin_schreier_check(5)


def test_mn_search_smallest_witness():
    w = mn_conjecture_search(2, 2, 2)
    assert w is not None
    assert w.coeffs == (2, 1, 1)
    assert poly.is_irreducible(w)


def test_mn_search_budget_guard():
    with pytest.raises(CapExceeded):
        mn_conjecture_search(5, 3, 4, budget=10)


def test_mn_witness_constraints():
    # middle coefficients live in the base image, the constant generates
    w = mn_conjecture_search(3, 2, 3)
    assert w is not None
    big = w.field
    assert big.Q == 9
    img = set(get_embedding(make_field(3, 1), big).image_indices())
    for c in w.coeffs[1:-1]:
        assert c in img
    assert w.coeffs[0] not in img
    assert w.coeffs[-1] == 1


def test_primitive_lower_bound_anchor():
    val, cond = primitive_lower_bound(7, 2, 1)
    phi = nt.phi(48)
    tau = nt.tau(48)
    want = phi / 48 * (7 - (tau - 1) * (2 * 1 - 1) * 7**0.5)
    assert val == pytest.approx(want)
    assert cond is False


def test_primitive_set_search_q7():
    rep = primitive_set_search(7, 2, 1)
    assert rep.mode == "primitive"
    assert rep.cardinality == 7
    assert rep.n_actual == 4
    assert rep.n_lower == pytest.approx(-5.6039206, abs=1e-6)
    assert rep.tau_condition is False
    assert rep.verified
    # count primitives by brute force
    big = make_field(7, 2)
    brute = sum(
        1 for i in rep.set_indices if i and field.mult_order(big.element(i)) == 48
    )
    assert brute == rep.n_actual


def test_primitive_set_search_rejects_base_alpha():
    big = make_field(7, 2)
    in_base = get_embedding(make_field(7, 1), big).image_indices()[2]
    with pytest.raises(ValueError):
        primitive_set_search(7, 2, 1, alpha_index=in_base)


@pytest.mark.parametrize("q", [128, 256, 997, 2048])
def test_primitive_count_meets_bound_where_tau_holds(q):
    # criterion 8's cells never satisfy the tau condition, so its
    # count >= bound gate is run here, at (q, n, t) = (q, 2, 1), where it holds
    p, k = nt.is_prime_power(q)
    big = make_field(p, 2 * k)
    base_img = set(get_embedding(make_field(p, k), big).image_indices())
    alphas = [a for a in range(0, big.Q, big.Q // 64) if a not in base_img]
    assert len(alphas) >= 60
    for a in alphas:
        rep = primitive_set_search(q, 2, 1, alpha_index=a)
        assert rep.tau_condition, (q, a)
        assert rep.n_actual >= math.ceil(rep.n_lower), (q, a, rep.n_actual, rep.n_lower)


def test_primitive_weil_audit_q7():
    rep = primitive_set_search(7, 2, 1)
    assert primitive_weil_audit(7, 2, 1, rep.spec.alpha_index) is True


@pytest.mark.parametrize("q", [7, 9, 13])
def test_primitive_weil_audit_checks_every_sum_of_a_covered_order(q, monkeypatch):
    # the audit asks weil_applicability once per order; a sum past the bound
    # at the last character of a covered order, not the one it asked about,
    # must still make it False
    base, big = field.make_field_pair(q, 2)
    a = primitive_set_search(q, 2, 1).spec.alpha_index
    assert primitive_weil_audit(q, 2, 1, a) is True
    # the largest squarefree order, the radical of Q - 1
    chis = characters_of_order(big, math.prod(nt.factorize(big.Q - 1).prime_divisors()))
    f = poly.Polynomial.binomial(big, 1, big.element(a)).scale(big.neg_idx(1))
    assert len(chis) > 1 and incomplete_char_sum(chis[-1], f, base).applicable is True
    real = charsum.char_sums

    def inflated(fd, logs, indices):
        values = real(fd, logs, indices)
        return np.where(np.asarray(indices) == chis[-1].index, values + 10 * q, values)

    monkeypatch.setattr(charsum, "char_sums", inflated)
    assert primitive_weil_audit(q, 2, 1, a) is False


@pytest.mark.parametrize("q", [7, 9])
def test_primitive_weil_audit_matches_the_per_character_loop(q):
    # the audit as one incomplete_char_sum per character of each squarefree
    # order d > 1, each call evaluating f afresh
    base, big = field.make_field_pair(q, 2)
    orders = [d for d in nt.factorize(big.Q - 1).divisors() if d > 1 and nt.moebius(d)]
    verdicts = set()
    for t in (1, 2):
        for a in range(big.Q):
            f = poly.Polynomial.binomial(big, t, big.element(a)).scale(big.neg_idx(1))
            oks = [
                incomplete_char_sum(chi, f, base).ok
                for d in orders
                for chi in characters_of_order(big, d)
            ]
            want = False if False in oks else None if None in oks else True
            assert primitive_weil_audit(q, 2, t, a) is want, (q, t, a)
            verdicts.add(want)
    # alphas in GF(q) give f a root in the base field, where the bound does
    # not apply (None); no applicable sum exceeds its bound, so never False
    assert verdicts == {True, None}


def test_survey_row_q7():
    rows = survey_rows(7, 7, 2, 2)
    assert rows == [
        {
            "q": 7, "h": 2, "d": 2, "r": 3, "t": 1, "t_strict": 1,
            "set_size": 7, "m_h": 1,
            "cond1": True, "cond2": True, "cond3": True, "cond4": True,
            "guaranteed": True, "certified": True,
            "floor_log2_qm1": 2, "sqrt_q": "2.645751",
            "log2_claim_ok": False, "status": "ok",
        }
    ]


def test_survey_skips_and_range():
    rows = survey_rows(7, 13, 2, 2)
    qs = [r["q"] for r in rows]
    assert qs == [7, 8, 9, 11, 13]
    r8 = rows[1]
    assert r8["status"].startswith("skipped")  # 2 does not divide 63... d = 2, q = 8: 63 odd


def test_survey_d_one_divides_everything():
    # d = 1 divides every q**h - 1, so no row is skipped
    assert [r["status"] for r in survey_rows(7, 9, 2, 1)] == ["ok", "ok", "ok"]


def test_audit_bounds_rows_shape():
    rows = audit_bounds_rows(100, h=2)
    byq = {r["q"]: r for r in rows}
    assert set(byq) == {q for q in nt.prime_powers_in(3, 100) if q % 2}
    assert all(r["sqrt_ok"] for r in rows)
    assert byq[17] == {
        "q": 17, "m_h": 2, "floor_log2_qm1": 4, "sqrt_ok": True, "log2_claim_ok": False,
    }


def test_verify_report_roundtrip():
    rep = construct_pipeline(7, 1, 2, 2)
    blob = json.loads(json.dumps(rep.to_json()))
    ok, problems = verify_report(blob)
    assert ok and problems == []


def test_verify_report_detects_tampering():
    rep = construct_pipeline(7, 1, 2, 2)
    blob = rep.to_json()
    bad = json.loads(json.dumps(blob))
    bad["cardinality"] = 99
    ok, problems = verify_report(bad)
    assert not ok and problems


def test_verify_report_tells_true_from_one():
    # inside lists the types are not checked up front; the comparison with
    # the rerun must still refuse 1 for true and 9.0 for 9
    blob = json.loads(json.dumps(construct_pipeline(7, 1, 2, 2).to_json()))
    for key, value in (("conditions", [1, 1, 1, 1]), ("set_indices", [float(i) for i in blob["set_indices"]])):
        ok, problems = verify_report({**blob, key: value})
        assert not ok and problems == [f"{key} differs from the rerun"]


def test_verify_report_detects_descriptor_drift():
    rep = construct_pipeline(7, 1, 2, 2)
    bad = json.loads(json.dumps(rep.to_json()))
    bad["big_field"]["modulus"] = [5, 0, 1]
    ok, problems = verify_report(bad)
    assert not ok and problems


def _leaves(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


def _flip(value):
    if isinstance(value, bool):
        return not value
    if value is None:
        return 0
    if isinstance(value, (int, float)):
        return value + 1
    return value + "x"


def _rerun(blob):
    sp = blob["spec"]
    if blob["mode"] == "primitive":
        return primitive_set_search(sp["p"] ** sp["k"], sp["h"], sp["t"], sp["alpha"]).to_json()
    t = sp["t"] if sp["r"] is None else None
    return construct_pipeline(sp["p"], sp["k"], sp["h"], sp["d"], alpha_index=sp["alpha"], t=t).to_json()


# leaf flips that verify accepts, because the flipped report is the one the
# pipeline emits for the flipped spec: at t = 1, alpha 9 -> 10 moves alpha
# inside its own coset alpha + F_7 of GF(49), with the same order
BENIGN_FLIPS = {
    "construct": {("spec", "alpha")},
    "primitive": {("spec", "alpha")},
}


@pytest.mark.parametrize("kind", sorted(BENIGN_FLIPS))
def test_verify_rejects_every_flipped_leaf(kind):
    rep = construct_pipeline(7, 1, 2, 2) if kind == "construct" else primitive_set_search(7, 2, 1)
    blob = json.loads(json.dumps(rep.to_json()))
    accepted = set()
    leaves = list(_leaves(blob))
    assert len(leaves) == 40
    for path, value in leaves:
        bad = copy.deepcopy(blob)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _flip(value)
        try:
            ok, problems = verify_report(bad)
        except ValueError:
            continue  # rejected as malformed
        if ok:
            accepted.add(path)
            assert json.dumps(bad, sort_keys=True) == json.dumps(_rerun(bad), sort_keys=True)
        else:
            assert problems, path
    assert accepted == BENIGN_FLIPS[kind]
