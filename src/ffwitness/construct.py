"""Explicit small subsets of an extension field that provably contain a
non-d-th-power or a primitive element, with certificates found by direct
search, plus exhaustive desk checks of the neighboring statements."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import nt
from .field import (
    CapExceeded,
    FieldDescriptor,
    FieldElement,
    get_embedding,
    is_dth_power,
    make_field,
    make_field_pair,
)
from .poly import Polynomial, is_irreducible, roots_in_extension


@dataclass(frozen=True)
class ConstructionSpec:
    """Parameters of one set construction S = {alpha - x**t : x in GF(q)}
    inside GF(q**h). d is the power-freeness target (None in primitive mode),
    r the prime that t is a power of (None when t was forced), e the
    multiplicative order of alpha."""

    p: int
    k: int
    h: int
    d: int | None
    t: int
    r: int | None
    alpha_index: int
    e: int

    @property
    def q(self) -> int:
        return self.p**self.k

    def to_json(self) -> dict:
        return {"alpha" if f.name == "alpha_index" else f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ConstructionReport:
    spec: ConstructionSpec
    conditions: tuple[bool, bool, bool, bool]
    guaranteed: bool
    set_indices: tuple[int, ...]
    cardinality: int
    certificate: int | None
    verified: bool
    mode: str  # "non_dth_power" | "primitive"
    t_strict: int
    m_h: int
    big_field: dict
    base_field: dict
    n_actual: int | None = None
    n_lower: float | None = None
    tau_condition: bool | None = None

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(spec=self.spec.to_json(), conditions=list(self.conditions), set_indices=list(self.set_indices))
        return out


# ---------------------------------------------------------------------------
# the set construction


def build_set(alpha: FieldElement, t: int, base: FieldDescriptor) -> set[FieldElement]:
    """S = {alpha - x**t : x in the embedded base field}. The cardinality is
    always 1 + (q-1)/gcd(t, q-1); any other size means the arithmetic is
    broken and raises RuntimeError."""
    if t < 1:
        raise ValueError("t must be >= 1")
    B = alpha.field
    emb = get_embedding(base, B)
    points = np.array(emb.image_indices(), dtype=np.int64)
    powered = B.pow_vec(points, t)
    vals = B.sub_vec(np.full(points.shape, alpha.idx, dtype=np.int64), powered)
    S = {FieldElement(B, int(v)) for v in np.unique(vals)}
    q = base.Q
    expected = 1 + (q - 1) // math.gcd(t, q - 1)
    if len(S) != expected:
        raise RuntimeError(f"set cardinality {len(S)} != {expected}; arithmetic is broken")
    return S


def theorem_conditions_check(spec: ConstructionSpec) -> tuple[bool, bool, bool, bool]:
    """The four arithmetic conditions under which the construction is
    guaranteed to contain a non-d-th power for every d | q**h - 1, d > 1:
    (1) gcd(t, (q**h - 1)/e) == 1, (2) every prime of t divides e,
    (3) q**h = 1 mod 4 whenever 4 | t, (4) t*h <= sqrt(q), the last compared
    exactly as t**2 * h**2 <= q."""
    q = spec.q
    c1, c2, c3 = nt.binomial_conditions(spec.t, q**spec.h, spec.e)
    c4 = spec.t * spec.t * spec.h * spec.h <= q
    return c1, c2, c3, c4


def find_non_dth_power(S, d: int) -> FieldElement | None:
    """First element of S (by index) that is not a d-th power, or None.
    Rejects 0 in S and d not dividing Q-1."""
    members = sorted(S, key=lambda b: b.idx)
    if not members:
        return None
    fd = members[0].field
    if d < 1 or (fd.Q - 1) % d != 0:
        raise ValueError(f"d = {d} must divide Q-1 = {fd.Q - 1}")
    if members[0].idx == 0:
        raise ValueError("0 in S: d-th power status is undefined at zero")
    for beta in members:
        if not is_dth_power(beta, d):
            return beta
    return None


def _strict_t(r: int, h: int, q: int) -> int:
    # the largest power t of r with t * h < sqrt(q); for integers,
    # (t * h)**2 < q exactly when (t * h)**2 <= q - 1
    return r ** nt._max_exponent(r, h, q - 1)


def _choose_alpha(big: FieldDescriptor, base: FieldDescriptor, alpha_index: int | None) -> int:
    """A given alpha index, checked to lie in big outside the embedded base
    field; by default the deterministic generator."""
    base_image = set(get_embedding(base, big).image_indices())
    if alpha_index is None:
        # the generator is the minimal-index primitive element and never
        # lies in the embedded base field (its order exceeds q - 1)
        if big.generator_index in base_image:
            raise RuntimeError("generator unexpectedly lies in the base field")
        return big.generator_index
    if not 0 <= alpha_index < big.Q:
        raise ValueError(f"alpha index {alpha_index} out of range")
    if alpha_index in base_image:
        raise ValueError("alpha must avoid the embedded base field")
    return alpha_index


def construct_pipeline(
    p: int,
    k: int,
    h: int,
    d: int,
    *,
    alpha_index: int | None = None,
    t: int | None = None,
    cap: int | None = None,
) -> ConstructionReport:
    """End-to-end construction: pick t from q and h (unless forced), pick
    alpha (minimal primitive unless given), build S = {alpha - x**t}, check
    the four conditions, and certify a non-d-th power by direct search."""
    if h < 2:
        raise ValueError("h must be >= 2 so that alpha can avoid the base field")
    base = make_field(p, k, cap=cap)
    big = make_field(p, k * h, cap=cap)
    q, qh = base.Q, big.Q
    if d < 1 or (qh - 1) % d != 0:
        raise ValueError(f"d = {d} must divide q**h - 1 = {qh - 1}")
    r: int | None
    if t is None:
        if q >= 3:
            r, t = nt.choose_t(q, h)
        else:
            r, t = None, 1  # q = 2: q-1 = 1 has no prime part
    else:
        if t < 1:
            raise ValueError("forced t must be >= 1")
        r = None
    return _report(base, big, h, d, t, r, alpha_index, "non_dth_power")


def _report(
    base: FieldDescriptor, big: FieldDescriptor, h: int, d: int | None, t: int, r: int | None,
    alpha_index: int | None, mode: str,
) -> ConstructionReport:
    """The report of S = {alpha - x**t} in either mode: alpha, its order and
    the conditions, then S and its certificate, the first non-d-th power
    ("non_dth_power") or the first primitive element ("primitive")."""
    q, qh1 = base.Q, big.Q - 1
    alpha_index = _choose_alpha(big, base, alpha_index)
    e = big.mult_order_idx(alpha_index)
    spec = ConstructionSpec(base.p, base.k, h, d, t, r, alpha_index, e)
    conditions = theorem_conditions_check(spec)
    S = build_set(FieldElement(big, alpha_index), t, base)
    members = sorted(b.idx for b in S)
    extra = {}
    if mode == "primitive":
        prim = [m for m in members if m != 0 and math.gcd(big.log_idx(m), qh1) == 1]
        cert = prim[0] if prim else None
        n_lower, tau_cond = primitive_lower_bound(q, h, t)
        guaranteed = (e == qh1) and all(conditions[:3]) and tau_cond
        extra = {"n_actual": len(prim), "n_lower": n_lower, "tau_condition": tau_cond}
    else:
        beta = find_non_dth_power(S, d)
        cert = beta.idx if beta is not None else None
        guaranteed = all(conditions) and d > 1
    return ConstructionReport(
        spec=spec,
        conditions=conditions,
        guaranteed=guaranteed,
        set_indices=tuple(members),
        cardinality=len(members),
        certificate=cert,
        verified=cert is not None,
        mode=mode,
        t_strict=_strict_t(r, h, q) if r is not None else t,
        m_h=nt.m_of_h(q, h) if q >= 3 else 1,
        big_field=big.to_json(),
        base_field=base.to_json(),
        **extra,
    )


# ---------------------------------------------------------------------------
# vectorized whole-field scans


def _shifted_logs(base: FieldDescriptor, big: FieldDescriptor, t: int):
    """For each distinct s = x**t, x in the embedded base field, in
    ascending index order: the discrete logs of alpha - s at every alpha of
    big (-1 where alpha = s)."""
    points = np.array(get_embedding(base, big).image_indices(), dtype=np.int64)
    all_idx = big.all_indices()
    for s in np.unique(big.pow_vec(points, t)):
        yield big.log_vec(big.sub_vec(all_idx, np.int64(s)))


def coset_power_gcds(q: int, h: int, t: int, *, cap: int | None = None) -> np.ndarray:
    """For every alpha in GF(q**h), the gcd of q**h - 1 with the discrete logs
    of all members of {alpha - x**t : x in GF(q)}.

    The coset consists entirely of d-th powers iff d divides this gcd, so
    entry 1 certifies a non-d-th power for every d > 1. Entries at alpha in
    the embedded base field (where the coset may contain 0) are not
    meaningful; callers mask them. Rejects h < 2, where every alpha is."""
    if h < 2:
        raise ValueError("h must be >= 2 so that alpha can avoid the base field")
    base, big = make_field_pair(q, h, cap=cap)
    g = np.zeros(big.Q, dtype=np.int64)
    for logs in _shifted_logs(base, big, t):
        np.gcd(g, np.where(logs < 0, 0, logs), out=g)
    np.gcd(g, np.int64(big.Q - 1), out=g)
    return g


def base_image_mask(q: int, h: int, *, cap: int | None = None) -> np.ndarray:
    """Boolean mask over GF(q**h) indices marking the embedded GF(q)."""
    base, big = make_field_pair(q, h, cap=cap)
    emb = get_embedding(base, big)
    mask = np.zeros(big.Q, dtype=bool)
    mask[list(emb.image_indices())] = True
    return mask


# ---------------------------------------------------------------------------
# neighboring statements, checked exhaustively at desk scale


def coulter_kosick_check(q: int, *, cap: int | None = None) -> bool:
    """For every alpha in GF(q**2) outside GF(q): {alpha - x**2 : x in GF(q)}
    contains both a square and a non-square of GF(q**2). Exhaustive over
    alpha. Requires an odd prime power q >= 7."""
    if q % 2 == 0 or q < 7:
        raise ValueError("q must be an odd prime power >= 7")
    base, big = make_field_pair(q, 2, cap=cap)
    has_square = np.zeros(big.Q, dtype=bool)
    has_nonsquare = np.zeros(big.Q, dtype=bool)
    for logs in _shifted_logs(base, big, 2):
        nz = logs >= 0
        has_square |= nz & (logs % 2 == 0)
        has_nonsquare |= nz & (logs % 2 == 1)
    outside = ~base_image_mask(q, 2, cap=cap)
    return bool(np.all((has_square & has_nonsquare)[outside]))


def hm_artin_schreier_check(p: int, *, cap: int | None = None) -> bool:
    """With a the least non-square of GF(p): every root of x**p - x - a in
    GF(p**p) is a non-square. The roots are alpha + c, c in GF(p), for any
    one root alpha, so there must be exactly p of them."""
    if p % 2 == 0:
        raise ValueError("p must be an odd prime")
    # make_field checks the cap before it tests p for primality, which can
    # take unbounded time, and rejects a p that is not prime
    big = make_field(p, p, cap=cap)
    fp = make_field(p, 1, cap=cap)
    a = next(c for c in range(2, p) if not is_dth_power(FieldElement(fp, c), 2))
    roots = roots_in_extension(Polynomial(fp, (p - a, p - 1) + (0,) * (p - 2) + (1,)), big)
    if len(roots) != p:
        raise RuntimeError(f"x**p - x - a has {len(roots)} roots, not p; field arithmetic is broken")
    return not any(is_dth_power(root, 2) for root in roots)


def mn_conjecture_search(
    q: int, kk: int, l: int, *, budget: int = 10**7, cap: int | None = None
) -> Polynomial | None:
    """Search for a monic irreducible f of degree l over GF(q**kk) such that
    f - f(0) has all coefficients in GF(q) and f(0) lies in no proper
    subfield of GF(q**kk).

    Scans f(0) in ascending index order and the GF(q) coefficients in
    ascending embedded-index order (highest-degree coefficient varying
    fastest); returns the first witness, or None when the exhaustive search
    finds none."""
    if kk < 1 or l < 1:
        raise ValueError("kk and l must be >= 1")
    sub, big = make_field_pair(q, kk, cap=cap)
    p, K = big.p, big.k
    # q**(l-1) >= 2**(l-1) exceeds the budget when l - 1 passes its bit
    # length, which is checked first so that a huge power is never formed
    if l - 1 > budget.bit_length() or big.Q * q ** (l - 1) > budget:
        raise CapExceeded(f"candidate count q**kk * q**(l-1) exceeds budget {budget}")
    emb = get_embedding(sub, big)
    mid_choices = sorted(emb.image_indices())
    max_proper = [K // rr for rr in nt.factorize(K).prime_divisors()]
    for c0 in range(big.Q):
        if any(big.pow_idx(c0, p**s) == c0 for s in max_proper):
            continue  # f(0) falls in a proper subfield
        for mids in itertools.product(mid_choices, repeat=l - 1):
            f = Polynomial(big, (c0, *mids, 1))
            if is_irreducible(f):
                return f
    return None


# ---------------------------------------------------------------------------
# primitive-element constructions


def primitive_lower_bound(q: int, n: int, t: int) -> tuple[float, bool]:
    """The character-sum lower bound on the number of primitive elements hit
    by {alpha - x**t : x in GF(q)} inside GF(q**n), together with the
    divisor-count condition that makes it positive:

        N >= phi(q**n - 1)/(q**n - 1) * (q - (tau(q**n - 1) - 1)*(n*t - 1)*sqrt(q))

    The condition tau(q**n - 1) < sqrt(q)/(n*t - 1) + 1 is evaluated exactly
    as (tau - 1)**2 * (n*t - 1)**2 < q (vacuously true when n*t == 1)."""
    if nt.is_prime_power(q) is None:
        raise ValueError(f"{q} is not a prime power")
    if n < 1 or t < 1:
        raise ValueError("n and t must be >= 1")
    qn = q**n
    tau_ = nt.tau(qn - 1)
    phi_ = nt.phi(qn - 1)
    nt1 = n * t - 1
    n_lower = phi_ / (qn - 1) * (q - (tau_ - 1) * nt1 * math.sqrt(q))
    cond = True if nt1 == 0 else (tau_ - 1) ** 2 * nt1**2 < q
    return n_lower, cond


def primitive_set_search(
    q: int, n: int, t: int, alpha_index: int | None = None, *, cap: int | None = None
) -> ConstructionReport:
    """Count and certify primitive elements of GF(q**n) inside
    S = {alpha - x**t : x in GF(q)}."""
    if n < 2:
        raise ValueError("n must be >= 2 so that alpha can avoid the base field")
    if t < 1:
        raise ValueError("t must be >= 1")
    base, big = make_field_pair(q, n, cap=cap)
    return _report(base, big, n, None, t, None, alpha_index, "primitive")


# ---------------------------------------------------------------------------
# survey and audit tabulation


def survey_rows(
    q_min: int, q_max: int, h: int, d: int, *, cap: int | None = None
) -> list[dict]:
    """One pipeline run per prime power in [q_min, q_max]; rows where d does
    not divide q**h - 1 or the field exceeds the cap are recorded, not
    dropped. Raises ValueError for d < 1 and h < 1."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    rows = []
    for q in nt.prime_powers_in(q_min, q_max):
        p, k = nt.is_prime_power(q)
        row: dict = {"q": q, "h": h, "d": d}
        try:
            # q**h itself can be huge; only its residue mod d is needed
            if pow(q, h, d) != 1 % d:
                row["status"] = "skipped: d does not divide q**h - 1"
            else:
                rep = construct_pipeline(p, k, h, d, cap=cap)
                m_h = rep.m_h
                fl = (q - 1).bit_length() - 1
                row.update(
                    {
                        "r": rep.spec.r,
                        "t": rep.spec.t,
                        "t_strict": rep.t_strict,
                        "set_size": rep.cardinality,
                        "m_h": m_h,
                        "cond1": rep.conditions[0],
                        "cond2": rep.conditions[1],
                        "cond3": rep.conditions[2],
                        "cond4": rep.conditions[3],
                        "guaranteed": rep.guaranteed,
                        "certified": rep.verified,
                        "floor_log2_qm1": fl,
                        "sqrt_q": f"{math.sqrt(q):.6f}",
                        "log2_claim_ok": fl <= m_h,
                        "status": "ok",
                    }
                )
        except CapExceeded as exc:
            row["status"] = f"cap: {exc}"
        except ValueError as exc:
            row["status"] = f"error: {exc}"
        rows.append(row)
    return rows


def audit_bounds_rows(q_max: int, h: int = 2) -> list[dict]:
    """For every odd prime power 3 <= q <= q_max: M(h), the assertion
    M(h) < sqrt(q) (exact integer comparison), and the tabulated-only claim
    floor(log2(q-1)) <= M(h) with its violations."""
    rows = []
    for q in nt.prime_powers_in(3, q_max):
        if q % 2 == 0:
            continue
        m_h = nt.m_of_h(q, h)
        fl = (q - 1).bit_length() - 1
        rows.append(
            {
                "q": q,
                "m_h": m_h,
                "floor_log2_qm1": fl,
                "sqrt_ok": m_h * m_h < q,
                "log2_claim_ok": fl <= m_h,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# report re-verification


_NULL = type(None)
# the JSON type of every key of a report and of its spec, matched exactly
# (JSON true is a bool, never an int)
_REPORT_TYPES = {
    "spec": (dict,), "conditions": (list,), "guaranteed": (bool,), "set_indices": (list,),
    "cardinality": (int,), "certificate": (int, _NULL), "verified": (bool,), "mode": (str,),
    "t_strict": (int,), "m_h": (int,), "big_field": (dict,), "base_field": (dict,),
    "n_actual": (int, _NULL), "n_lower": (float, _NULL), "tau_condition": (bool, _NULL),
}
_SPEC_TYPES = {
    "p": (int,), "k": (int,), "h": (int,), "d": (int, _NULL), "t": (int,), "r": (int, _NULL),
    "alpha": (int,), "e": (int,),
}


def _check_types(obj, types: dict, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in types if key not in obj]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(missing)}")
    for key, kinds in types.items():
        if type(obj[key]) not in kinds:
            raise ValueError(f"{what} {key} has the wrong type {type(obj[key]).__name__}")


def _canonical(value) -> str:
    # == would let 1, 1.0 and true stand for one another
    return json.dumps(value, sort_keys=True)


def verify_report(report: dict, *, cap: int | None = None) -> tuple[bool, list[str]]:
    """Rerun the pipeline a saved report came from, with its spec and its
    alpha (and its t when the report forced it, r = null), and compare the
    whole report with the rerun. Returns (ok, problems), one problem per
    top-level key that differs. Raises ValueError when the report is not a
    JSON object of the report's shape or names an invalid construction."""
    _check_types(report, _REPORT_TYPES, "report")
    sp = report["spec"]
    _check_types(sp, _SPEC_TYPES, "report spec")
    if report["mode"] == "non_dth_power":
        if sp["d"] is None:
            raise ValueError("report spec d must be an integer in non_dth_power mode")
        forced_t = sp["t"] if sp["r"] is None else None
        rerun = construct_pipeline(
            sp["p"], sp["k"], sp["h"], sp["d"], alpha_index=sp["alpha"], t=forced_t, cap=cap
        ).to_json()
    elif report["mode"] == "primitive":
        q = make_field(sp["p"], sp["k"], cap=cap).Q
        rerun = primitive_set_search(q, sp["h"], sp["t"], sp["alpha"], cap=cap).to_json()
    else:
        raise ValueError(f"unknown mode {report['mode']!r}")
    problems = [
        f"{key} differs from the rerun"
        for key in sorted(report.keys() | rerun.keys())
        if key not in report or key not in rerun or _canonical(report[key]) != _canonical(rerun[key])
    ]
    return not problems, problems
