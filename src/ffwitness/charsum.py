"""Multiplicative characters of GF(Q)*, incomplete character sums taken over
an embedded subfield, the square-root cancellation bound with an honest
applicability test, and the r-free indicator sums (primitive is r = Q - 1).

Every character value goes through one kernel, char_sums, which sums a vector
of characters over the discrete logs of some field values in one gather.

The applicability test follows the norm criterion: the bound covers the sum
of chi over f(subfield) when for some root zeta of f, with multiplicity t,
chi**t is nontrivial on the norm image (down to GF(Q)) of GF(q)(zeta)*, of
order o, that is when o / gcd(t, o) does not divide chi's index. So chi is
covered iff L, the lcm of o / gcd(t, o) over the roots, does not divide its
index; L divides the index of a character of order d iff it divides
(Q - 1)/d, so primitive_weil_audit asks once per order.

The roots are grouped by the squarefree layers of f (poly.squarefree_layers),
A_e holding those of multiplicity exactly e, and each layer by the
distinct-degree factorization poly.is_irreducible runs. Level i holds the
roots of degree exactly i over GF(Q) (level 1 those in GF(Q) itself). A
level that is one irreducible factor P is decided in closed form at every
size: its i roots are conjugate, so they share the field GF(q)(zeta), and
no extension field is built. That field is GF(q**j) with j = i*c, c the
degree over GF(q) of the field P's coefficients generate (Lidl-Niederreiter,
Finite Fields, Thm 3.46), and c costs no polynomial power: a nonzero a of
GF(Q) lies in GF(q**s) iff (Q-1)/(q**s-1) divides log a. A level of several
factors of one degree is resolved by finding its roots in GF(Q**i) when that
field fits the cap, and is reported as unknown beyond it rather than guessed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nt
from .field import (
    DEFAULT_CAP,
    FieldDescriptor,
    FieldElement,
    cached,
    get_embedding,
    make_field,
    make_field_pair,
    mult_order,
)
from .poly import Polynomial, distinct_degree_factors, roots_in_extension, squarefree_layers


def _omega(fd: FieldDescriptor) -> np.ndarray:
    def build():
        n = fd.Q - 1
        got = np.exp(2j * np.pi * np.arange(n) / n)
        got.flags.writeable = False
        return got

    return cached((fd,), "omega", build)


def char_sums(fd: FieldDescriptor, logs: Sequence[int], indices: Sequence[int]) -> np.ndarray:
    """For each character index j in `indices`, the sum of
    exp(2*pi*i*j*l/(Q-1)) over the discrete logs l in `logs`, in one gather.
    Logs -1 (zeros, where every character is 0) are dropped. Each row sums
    bit for bit as the 1-D gather of its index alone would."""
    logs = np.asarray(logs, dtype=np.int64)
    logs = logs[logs >= 0]
    idx = np.asarray(indices, dtype=np.int64)
    # both factors are below Q - 1 <= 2**30, so the product fits in int64
    return _omega(fd)[(idx[:, None] * logs) % (fd.Q - 1)].sum(axis=1)


@dataclass(frozen=True)
class Character:
    """The multiplicative character g**j -> exp(2*pi*i*j*index/(Q-1)),
    extended by 0 at 0."""

    field: FieldDescriptor
    index: int

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    def __call__(self, beta: FieldElement | int) -> complex:
        idx = self.field.element(beta).idx
        return complex(char_sums(self.field, self.field.log_vec(np.array([idx])), [self.index])[0])


def make_character(fd: FieldDescriptor, index: int) -> Character:
    """Character with the given exponent index, 0 <= index < Q-1."""
    if not 0 <= index < fd.Q - 1:
        raise ValueError(f"character index {index} out of range [0, {fd.Q - 1})")
    return Character(fd, index)


def _indices_of_order(fd: FieldDescriptor, d: int) -> list[int]:
    """The indices (Q-1)/d * j mod Q-1 of the characters of exact order d
    (d | Q-1), in ascending order of the exponent j with gcd(j, d) == 1."""
    n = fd.Q - 1
    if d < 1 or n % d != 0:
        raise ValueError(f"order {d} does not divide Q-1 = {n}")
    j = np.arange(1, d + 1, dtype=np.int64)
    return ((j[np.gcd(j, d) == 1] * (n // d)) % n).tolist()


def characters_of_order(fd: FieldDescriptor, d: int) -> list[Character]:
    """All characters of exact order d (d | Q-1), in ascending index order of
    the defining exponent j with gcd(j, d) == 1."""
    return [Character(fd, j) for j in _indices_of_order(fd, d)]


# ---------------------------------------------------------------------------
# incomplete sums and the applicability analysis


@dataclass(frozen=True)
class WeilApplicability:
    applicable: bool | None  # None: not decidable within the cap
    m: int
    D: int
    bound: float | None
    shortcut_used: bool  # some level was decided from its one irreducible factor


@dataclass(frozen=True)
class CharSumResult:
    value: complex
    terms: int
    bound: float | None
    applicable: bool | None

    @property
    def ok(self) -> bool | None:
        """Whether |value| is within the bound; None unless the bound applies."""
        return bool(_within_bound(self.value, self.bound)) if self.applicable is True else None


def _within_bound(values, bound: float):
    # the one tolerance rule: |sum| within its Weil bound, to 1e-6
    return np.abs(values) <= bound + 1e-6


def _check_domain(chi: Character, f: Polynomial, base: FieldDescriptor) -> int:
    if f.field._key != chi.field._key:
        raise ValueError("character and polynomial live in different fields")
    if base.p != chi.field.p or chi.field.k % base.k != 0:
        raise ValueError("base field does not embed in the character's field")
    return chi.field.k // base.k


def _subfield_degree(fd: FieldDescriptor, indices: Sequence[int], q: int, span: int) -> int:
    """The least s | span (with fd = GF(q**span)) such that every nonzero
    index lies in the copy of GF(q**s): a nonzero a lies there iff
    (Q - 1)/(q**s - 1) divides log a, so iff it divides the gcd of the logs."""
    n = fd.Q - 1
    g = math.gcd(n, *(fd.log_idx(a) for a in indices if a))
    return next(s for s in nt.factorize(span).divisors() if g % (n // (q**s - 1)) == 0)


def _norm_image_order(ext_Q: int, down_Q: int, q: int, j: int) -> int:
    """Order of Norm(GF(q**j)*) inside GF(down_Q)*, with the norm taken from
    GF(ext_Q) down to GF(down_Q). In log space GF(q**j)* is the multiples of
    stride = n/(q**j - 1) and the norm multiplies logs by n/(down_Q - 1), so
    the image is the cyclic group generated by their product mod n."""
    n = ext_Q - 1
    stride = n // (q**j - 1)
    norm_exp = n // (down_Q - 1)
    return n // math.gcd(stride * norm_exp, n)


def _root_profile(f: Polynomial, base: FieldDescriptor, cap: int) -> tuple[tuple, bool, int]:
    """Classify the roots of f (over its coefficient field B) by multiplicity
    e, the layer A_e of f they lie in, and by the order of the norm image of
    GF(q)(zeta)* in B*, one distinct-degree level of A_e at a time.

    A level that is one irreducible factor P of degree i is decided in closed
    form at every cap: its i roots are conjugate over B, so each generates
    GF(q**j) over GF(q) with j = i*c, c the degree over GF(q) of the field
    the coefficients of the monic P generate (Lidl-Niederreiter, Finite
    Fields, Thm 3.46), read from their discrete logs. A level of several
    factors of one degree has its roots found in GF(Q**i) when that field
    fits the cap, each root's degree read from its log.

    Returns (classes, shortcut_used, D) where classes is a tuple of
    (multiplicity, image_order) per root, (None, None) for a level beyond
    the cap, shortcut_used says some level was decided from its single
    factor, and D is the degree of the squarefree part.
    """
    B = f.field
    q = base.Q
    m = B.k // base.k
    classes: list[tuple[int | None, int | None]] = []
    shortcut_used = False
    D = 0
    for e, A in squarefree_layers(f):
        D += A.degree()
        for i, comp in distinct_degree_factors(A):
            if comp.degree() == i:
                j = i * _subfield_degree(B, comp.coeffs, q, m)
                classes += [(e, _norm_image_order(B.Q**i, B.Q, q, j))] * i
                shortcut_used = True
            elif B.Q**i <= cap:
                # every root of comp has degree exactly i over B, so GF(Q**i)
                # holds them all
                ext = make_field(B.p, B.k * i, cap=cap)
                for zeta in roots_in_extension(comp, ext):
                    j = _subfield_degree(ext, [zeta.idx], q, m * i)
                    classes.append((e, _norm_image_order(ext.Q, B.Q, q, j)))
            else:
                # several factors of degree i beyond the cap, not told apart
                classes.append((None, None))
    return tuple(classes), shortcut_used, D


def weil_applicability(
    chi: Character, f: Polynomial, base: FieldDescriptor, *, cap: int | None = None
) -> WeilApplicability:
    """Decide whether the (m*D - 1)*sqrt(q) bound provably covers the sum of
    chi over f(base field). Three-valued: True / False / None (unknown when a
    root class cannot be resolved within the cap)."""
    m = _check_domain(chi, f, base)
    cap_eff = cap if cap is not None else DEFAULT_CAP
    if f.degree() < 1:
        return WeilApplicability(False, m, 0, None, False)
    key = ("profile", f.coeffs, base._key, cap_eff)
    classes, shortcut_used, D = cached((f.field, base), key, lambda: _root_profile(f, base, cap_eff))
    bound = (m * D - 1) * math.sqrt(base.Q)
    if chi.is_trivial:
        return WeilApplicability(False, m, D, bound, False)
    L = math.lcm(*(o // math.gcd(mult, o) for mult, o in classes if o is not None))
    applicable = True if chi.index % L else (None if (None, None) in classes else False)
    return WeilApplicability(applicable, m, D, bound, shortcut_used)


def _value_logs(f: Polynomial, base: FieldDescriptor) -> np.ndarray:
    B = f.field
    points = np.array(get_embedding(base, B).image_indices(), dtype=np.int64)
    return B.log_vec(B.eval_poly_vec(f.coeffs, points))


def incomplete_char_sum(
    chi: Character, f: Polynomial, base: FieldDescriptor, *, cap: int | None = None
) -> CharSumResult:
    """Sum of chi(f(a)) over a in the embedded base field, with the bound and
    its applicability attached."""
    value = char_sums(chi.field, _value_logs(f, base), [chi.index])[0]
    w = weil_applicability(chi, f, base, cap=cap)
    return CharSumResult(complex(value), base.Q, w.bound, w.applicable)


def primitive_weil_audit(q: int, n: int, t: int, alpha_index: int, *, cap: int | None = None) -> bool | None:
    """Whether every sum of chi(alpha - x**t) over GF(q), chi nontrivial of
    squarefree order dividing q**n - 1, is covered by its bound and within
    it: False if some sum exceeds it, else None if some chi is not covered."""
    base, big = make_field_pair(q, n, cap=cap)
    f = Polynomial.binomial(big, t, FieldElement(big, alpha_index)).scale(big.neg_idx(1))  # alpha - x**t
    rad = math.prod(nt.factorize(big.Q - 1).prime_divisors())
    verdict, covered = True, []
    for d in nt.factorize(rad).divisors()[1:]:  # the squarefree orders d > 1
        indices = _indices_of_order(big, d)
        # the verdict of every chi of order d
        w = weil_applicability(Character(big, indices[0]), f, base, cap=cap)
        if w.applicable is True:
            covered += indices
        else:
            verdict = None
    # one bound, (m*D - 1)*sqrt(q), for every chi
    if covered and not _within_bound(char_sums(big, _value_logs(f, base), covered), w.bound).all():
        return False
    return verdict


# ---------------------------------------------------------------------------
# r-free indicators


def _check_unit(alpha: FieldElement, r: int) -> FieldDescriptor:
    if alpha.idx == 0:
        raise ValueError("zero input: the indicator machinery lives on the unit group")
    n = alpha.field.Q - 1
    if r < 1 or n % r != 0:
        raise ValueError(f"r = {r} must divide Q-1 = {n}")
    return alpha.field


def is_r_free(alpha: FieldElement, r: int) -> bool:
    """alpha is r-free when gcd(r, (Q-1)/ord(alpha)) == 1: no d | r with d > 1
    admits a d-th root of alpha. Requires r | Q-1."""
    fd = _check_unit(alpha, r)
    return math.gcd(r, (fd.Q - 1) // mult_order(alpha)) == 1


def r_free_indicator_sum(alpha: FieldElement, r: int) -> complex:
    """The Moebius-weighted character sum sum_{d | r} mu(d)/phi(d) *
    sum_{ord(chi) = d} chi(alpha); equals r/phi(r) when alpha is r-free and 0
    otherwise. The weighted characters depend on Q and r alone, so they are
    held on the field and each alpha costs one char_sums gather."""
    fd = _check_unit(alpha, r)

    def build():
        rows = []
        for d in nt.factorize(r).divisors():
            w = nt.moebius(d) / nt.phi(d)
            if w:
                rows += [(w, j) for j in _indices_of_order(fd, d)]
        return np.array(rows, dtype=[("weight", np.float64), ("index", np.int64)])

    chis = cached((fd,), ("r-free", r), build)
    return complex(chis["weight"] @ char_sums(fd, [fd.log_idx(alpha.idx)], chis["index"]))


# ---------------------------------------------------------------------------
# seeded audit instances


@dataclass(frozen=True)
class WeilAuditRow:
    q: int
    m: int
    f: Polynomial
    chi: Character
    result: CharSumResult

    @property
    def ok(self) -> bool | None:
        return self.result.ok


def weil_audit_instances(
    q: int, m: int, count: int, *, max_degree: int = 3, seed: int = 0, cap: int | None = None
) -> list[WeilAuditRow]:
    """Draw seeded random (chi, f) pairs over GF(q**m) until `count` of them
    have applicability True; every draw is kept and reported. Deterministic
    for a fixed seed.

    max_degree is at most q**m: on GF(q**m), and so on the base field inside
    it, x**(q**m) = x, so a higher degree only repeats the values of a lower
    one."""
    if count < 1:  # a sample of no applicable draw would pass vacuously
        raise ValueError(f"count must be >= 1, got {count}")
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    base, B = make_field_pair(q, m, cap=cap)
    if B.Q == 2:
        raise ValueError(f"q**m = {q}**{m} = 2: GF(2) has no nontrivial character; need q**m >= 3")
    if max_degree > B.Q:
        raise ValueError(f"max_degree must be <= q**m = {B.Q}, got {max_degree}")
    rng = random.Random(seed)
    rows: list[WeilAuditRow] = []
    applicable = 0
    attempts = 0
    while applicable < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise RuntimeError("audit sampler failed to reach the requested count")
        deg = rng.randint(1, max_degree)
        coeffs = [rng.randrange(B.Q) for _ in range(deg)] + [rng.randrange(1, B.Q)]
        f = Polynomial(B, coeffs)
        chi = make_character(B, rng.randrange(1, B.Q - 1))
        res = incomplete_char_sum(chi, f, base, cap=cap)
        rows.append(WeilAuditRow(q, m, f, chi, res))
        if res.applicable is True:
            applicable += 1
    return rows
