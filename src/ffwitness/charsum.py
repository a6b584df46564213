"""Multiplicative characters of GF(Q)*, incomplete character sums taken over
an embedded subfield, the square-root cancellation bound with an honest
applicability test, and the r-free / primitive indicator sums.

The applicability test follows the norm criterion: the bound covers the sum
of chi over f(subfield) when for some root zeta of f, with multiplicity t,
chi**t is nontrivial on the norm image (down to GF(Q)) of GF(q)(zeta)*. The
roots are grouped by distinct-degree factorization; a group of degree i is
resolved exactly, by finding its roots in GF(Q**i), when that field fits the
cap. Beyond the cap only a simple-root shortcut can certify, and anything
else is reported as unknown rather than guessed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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
from .poly import (
    Polynomial,
    multiplicity,
    poly_powmod,
    roots_in_extension,
    squarefree_part,
    squarefree_part_degree,
)


def _omega(fd: FieldDescriptor) -> np.ndarray:
    def build():
        n = fd.Q - 1
        got = np.exp(2j * np.pi * np.arange(n) / n)
        got.flags.writeable = False
        return got

    return cached((fd,), "omega", build)


@dataclass(frozen=True)
class Character:
    """The multiplicative character g**j -> exp(2*pi*i*j*index/(Q-1)),
    extended by 0 at 0."""

    field: FieldDescriptor
    index: int

    @property
    def order(self) -> int:
        n = self.field.Q - 1
        return n // math.gcd(self.index, n)

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    def __call__(self, beta: FieldElement | int) -> complex:
        idx = beta.idx if isinstance(beta, FieldElement) else int(beta)
        if idx == 0:
            return 0j
        n = self.field.Q - 1
        return complex(_omega(self.field)[(self.index * self.field.log_idx(idx)) % n])

    def power(self, t: int) -> "Character":
        return Character(self.field, (self.index * t) % (self.field.Q - 1))


def make_character(fd: FieldDescriptor, index: int) -> Character:
    """Character with the given exponent index, 0 <= index < Q-1."""
    if not 0 <= index < fd.Q - 1:
        raise ValueError(f"character index {index} out of range [0, {fd.Q - 1})")
    return Character(fd, index)


def characters_of_order(fd: FieldDescriptor, d: int) -> list[Character]:
    """All characters of exact order d (d | Q-1), in ascending index order of
    the defining exponent j with gcd(j, d) == 1."""
    n = fd.Q - 1
    if d < 1 or n % d != 0:
        raise ValueError(f"order {d} does not divide Q-1 = {n}")
    step = n // d
    return [make_character(fd, (step * j) % n) for j in range(1, d + 1) if math.gcd(j, d) == 1]


# ---------------------------------------------------------------------------
# incomplete sums and the applicability analysis


@dataclass(frozen=True)
class WeilApplicability:
    applicable: bool | None  # None: not decidable within the cap
    m: int
    D: int
    bound: float | None
    shortcut_used: bool
    undecided_classes: int


@dataclass(frozen=True)
class CharSumResult:
    value: complex
    terms: int
    bound: float | None
    applicable: bool | None
    m: int
    D: int

    @property
    def ok(self) -> bool | None:
        """Whether |value| is within the bound (to 1e-6); None unless the
        bound is known to apply."""
        if self.applicable is not True:
            return None
        return abs(self.value) <= self.bound + 1e-6

    def to_json(self) -> dict:
        return {
            "re": self.value.real,
            "im": self.value.imag,
            "terms": self.terms,
            "bound": self.bound,
            "applicable": self.applicable,
        }


def _check_domain(chi: Character, f: Polynomial, base: FieldDescriptor) -> int:
    if f.field._key != chi.field._key:
        raise ValueError("character and polynomial live in different fields")
    if base.p != chi.field.p or chi.field.k % base.k != 0:
        raise ValueError("base field does not embed in the character's field")
    return chi.field.k // base.k


def _frobenius_degree(fd: FieldDescriptor, idx: int, q: int, span: int) -> int:
    # least s (a divisor of span) with idx**(q**s) == idx
    for s in nt.factorize(span).divisors():
        if fd.pow_idx(idx, q**s) == idx:
            return s
    raise RuntimeError("element fixed by no Frobenius power in its own field")


def _norm_image_order(ext: FieldDescriptor, down_Q: int, q: int, j: int) -> int:
    """Order of Norm(GF(q**j)*) inside GF(down_Q)*, with the norm taken from
    ext down to GF(down_Q). In log space GF(q**j)* is the multiples of
    stride = n/(q**j - 1) and the norm multiplies logs by n/(down_Q - 1), so
    the image is the cyclic group generated by their product mod n."""
    n = ext.Q - 1
    stride = n // (q**j - 1)
    norm_exp = n // (down_Q - 1)
    return n // math.gcd(stride * norm_exp, n)


def _root_profile(f: Polynomial, base: FieldDescriptor, cap: int) -> tuple[tuple, bool]:
    """Classify the roots of f (over its coefficient field B) by multiplicity
    and by the order of the norm image of GF(q)(zeta)* in B*.

    Returns (classes, shortcut_used) where classes is a tuple of
    (multiplicity, image_order_or_None); None means the class could not be
    resolved within the cap.
    """
    B = f.field
    q = base.Q
    m = B.k // base.k
    fm = f.monic()
    classes: list[tuple[int | None, int | None]] = []
    shortcut_used = False

    work = fm
    for zeta, mult in roots_in_extension(fm, B):
        j = _frobenius_degree(B, zeta.idx, q, m)
        # B[zeta] = B here, so the norm is the identity and the image is
        # GF(q**j)* itself
        classes.append((mult, q**j - 1))
        lin = Polynomial(B, (B.neg_idx(zeta.idx), 1))
        for _ in range(mult):
            work = work // lin

    if work.degree() > 0:
        # distinct-degree factorization of what has no root in B, from
        # degree 2: comp of degree i is gcd(rem, x**(Q**i) - x)
        sf = squarefree_part(work)
        x = Polynomial.x(B)
        h, h_level = x, 0  # h = x**(Q**h_level) mod sf, advanced only when needed
        rem = sf
        i = 1
        while rem.degree() > 0:
            i += 1
            if 2 * i > rem.degree():
                # every factor left has degree >= i, so rem is irreducible
                comp, i = rem, rem.degree()
                rem = Polynomial(B, (1,))
            else:
                h = poly_powmod(h, B.Q ** (i - h_level), sf)
                h_level = i
                comp = rem.gcd(h - x)
                if comp.degree() == 0:
                    continue
                rem = rem // comp
            shortcut_used |= _process_component(fm, comp, i, B, base, cap, classes)

    return tuple(classes), shortcut_used


def _process_component(
    fm: Polynomial,
    comp: Polynomial,
    i: int,
    B: FieldDescriptor,
    base: FieldDescriptor,
    cap: int,
    classes: list,
) -> bool:
    """Handle the product comp of irreducible factors of degree exactly i,
    appending its root classes; returns whether the simple-root shortcut
    certified one of them."""
    q = base.Q
    m = B.k // base.k
    p = B.p
    if B.Q**i <= cap:
        ext = make_field(p, B.k * i, cap=cap)
        for zeta, mult in roots_in_extension(fm, ext):
            if _frobenius_degree(ext, zeta.idx, B.Q, i) != i:
                continue  # lives in a smaller level, classified there
            j = _frobenius_degree(ext, zeta.idx, q, m * i)
            classes.append((mult, _norm_image_order(ext, B.Q, q, j)))
        return False
    if comp.degree() == i:
        # a single irreducible factor; the shortcut needs a simple root whose
        # field GF(q)(zeta) is all of B[zeta]
        phi_poly = comp.monic()
        mult = multiplicity(fm, phi_poly)
        x = Polynomial.x(B)
        cur = x
        j = None
        for s in range(1, m * i + 1):
            cur = poly_powmod(cur, q, phi_poly)
            if cur == x:
                j = s
                break
        if mult == 1 and j == m * i:
            # norm of B[zeta]* onto B* is surjective, so the image is all of B*
            classes.append((1, B.Q - 1))
            return True
        classes.append((mult, None))
    else:
        # several inseparable-to-us factors of degree i beyond the cap
        classes.append((None, None))
    return False


def weil_applicability(
    chi: Character, f: Polynomial, base: FieldDescriptor, *, cap: int | None = None
) -> WeilApplicability:
    """Decide whether the (m*D - 1)*sqrt(q) bound provably covers the sum of
    chi over f(base field). Three-valued: True / False / None (unknown when a
    root class cannot be resolved within the cap)."""
    m = _check_domain(chi, f, base)
    cap_eff = cap if cap is not None else DEFAULT_CAP
    if f.degree() < 1:
        return WeilApplicability(False, m, 0, None, False, 0)
    D = squarefree_part_degree(f)
    bound = (m * D - 1) * math.sqrt(base.Q)
    if chi.is_trivial:
        return WeilApplicability(False, m, D, bound, False, 0)
    key = ("profile", f.coeffs, base._key, cap_eff)
    classes, shortcut_used = cached((f.field, base), key, lambda: _root_profile(f, base, cap_eff))
    undecided = 0
    decided_true = False
    for mult, image_order in classes:
        if image_order is None:
            undecided += 1
        elif (mult * chi.index) % image_order != 0:
            decided_true = True
    if decided_true:
        return WeilApplicability(True, m, D, bound, shortcut_used, undecided)
    if undecided:
        return WeilApplicability(None, m, D, bound, shortcut_used, undecided)
    return WeilApplicability(False, m, D, bound, shortcut_used, 0)


def incomplete_char_sum(
    chi: Character, f: Polynomial, base: FieldDescriptor, *, cap: int | None = None
) -> CharSumResult:
    """Sum of chi(f(a)) over a in the embedded base field, with the bound and
    its applicability attached."""
    m = _check_domain(chi, f, base)
    B = chi.field
    emb = get_embedding(base, B)
    points = np.array(emb.image_indices(), dtype=np.int64)
    vals = B.eval_poly_vec(f.coeffs, points)
    logs = B.log_vec(vals)
    nz = logs >= 0
    total = complex(_omega(B)[(chi.index * logs[nz]) % (B.Q - 1)].sum())
    w = weil_applicability(chi, f, base, cap=cap)
    return CharSumResult(total, base.Q, w.bound, w.applicable, m, w.D)


# ---------------------------------------------------------------------------
# r-free and primitive indicators


def _check_unit(alpha: FieldElement) -> FieldDescriptor:
    if alpha.idx == 0:
        raise ValueError("zero input: the indicator machinery lives on the unit group")
    return alpha.field


def is_r_free(alpha: FieldElement, r: int) -> bool:
    """alpha is r-free when gcd(r, (Q-1)/ord(alpha)) == 1: no d | r with d > 1
    admits a d-th root of alpha. Requires r | Q-1."""
    fd = _check_unit(alpha)
    n = fd.Q - 1
    if r < 1 or n % r != 0:
        raise ValueError(f"r = {r} must divide Q-1 = {n}")
    return math.gcd(r, n // mult_order(alpha)) == 1


def r_free_indicator_sum(alpha: FieldElement, r: int) -> complex:
    """The Moebius-weighted character sum sum_{d | r} mu(d)/phi(d) *
    sum_{ord(chi) = d} chi(alpha); equals r/phi(r) when alpha is r-free and 0
    otherwise."""
    fd = _check_unit(alpha)
    n = fd.Q - 1
    if r < 1 or n % r != 0:
        raise ValueError(f"r = {r} must divide Q-1 = {n}")
    total = 0j
    for d in nt.factorize(r).divisors():
        mu = nt.moebius(d)
        if mu == 0:
            continue
        inner = 0j
        for chi in characters_of_order(fd, d):
            inner += chi(alpha)
        total += (mu / nt.phi(d)) * inner
    return total


def primitive_indicator(alpha: FieldElement) -> float:
    """phi(Q-1)/(Q-1) times the full Moebius-weighted sum over d | Q-1;
    equals 1 exactly when alpha is primitive, else 0."""
    n = alpha.field.Q - 1
    # primitive means (Q-1)-free, so this is the r-free sum at r = Q - 1
    return (nt.phi(n) / n) * r_free_indicator_sum(alpha, n).real


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
