"""Polynomials over a constructed field, plus the irreducibility machinery:
distinct-degree factorization and the irreducibility test built on it, the
binomial criterion, composition with x**t, squarefree parts and the
multiplicity layers built on them, and root finding in extensions.

Multiplication and division run in the log domain: each coefficient is
held as its discrete log (-1 for zero), a product of two terms is a sum of
logs, and adding a term into a coefficient is one read of the field's Zech
table. Modular powers go from the top bit down: a square forms only the
products a_i * a_j with i <= j (only the diagonal in characteristic 2), and
a product by the base x or x + delta is a shift plus one reduction step. A
squarefree f costs its squarefree part one gcd. Results of internal
arithmetic are already valid indices, so they skip the range checks of the
public constructor."""

from __future__ import annotations

from typing import Iterable, Iterator

from . import nt
from .field import FieldDescriptor, FieldElement, get_embedding, mult_order


# ---------------------------------------------------------------------------
# log-domain kernels: a polynomial is the list of its coefficient logs,
# constant first, with -1 for a zero coefficient. Adding g**t into a
# coefficient g**c makes it g**c * (1 + g**(t - c)) = g**(c + Z[t - c]),
# with Z the field's Zech table; Z = -1 means the sum is zero.


def _log_mul(a: list[int], b: list[int], n: int, zech) -> list[int]:
    """The product of two polynomials given by coefficient logs, with
    n = Q - 1."""
    terms = [(j, y) for j, y in enumerate(b) if y >= 0]
    acc = [-1] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x >= 0:
            for j, y in terms:
                t = (x + y) % n
                c = acc[i + j]
                if c < 0:
                    acc[i + j] = t
                else:
                    z = zech[t - c]  # t - c > -n: a negative index wraps mod n
                    acc[i + j] = (c + z) % n if z >= 0 else -1
    return acc


def _log_square(a: list[int], n: int, zech) -> list[int]:
    """The square of a polynomial given by coefficient logs, with n = Q - 1,
    from the products a_i * a_j with i <= j only: the diagonal a_i**2 and,
    for odd p, the cross terms 2 * a_i * a_j, i < j. In characteristic 2 the
    cross terms vanish, so only the diagonal is formed."""
    terms = [(i, x) for i, x in enumerate(a) if x >= 0]
    acc = [-1] * (2 * len(a) - 1)
    for i, x in terms:
        acc[2 * i] = 2 * x % n
    two = zech[0]  # log(1 + 1), -1 in characteristic 2
    if two >= 0:
        for s, (i, x) in enumerate(terms):
            x += two
            for j, y in terms[s + 1 :]:
                t = (x + y) % n
                c = acc[i + j]
                if c < 0:
                    acc[i + j] = t
                else:
                    z = zech[t - c]  # as in _log_mul
                    acc[i + j] = (c + z) % n if z >= 0 else -1
    return acc


def _log_mul_x_plus(a: list[int], d: int, n: int, zech) -> list[int]:
    """a * (x + g**d), all in logs, with d = -1 for x: a shifted up one
    place, plus a scaled by g**d."""
    acc = [-1] + a
    if d >= 0:
        for i, x in enumerate(a):
            if x >= 0:
                t = (x + d) % n
                c = acc[i]
                if c < 0:
                    acc[i] = t
                else:
                    z = zech[t - c]  # as in _log_mul
                    acc[i] = (c + z) % n if z >= 0 else -1
    return acc


def _log_divisor(f: "Polynomial") -> tuple[int, int, list[tuple[int, int]]]:
    """A nonzero divisor f as (degree, log of the leading coefficient,
    [(j, log(-f_j / f_lead)) for the nonzero lower f_j])."""
    fd = f.field
    n, log = fd.Q - 1, fd._logv
    lead = log[f.coeffs[-1]]
    shift = (0 if fd.p == 2 else n // 2) - lead  # log(-1) = (Q-1)/2 for odd p
    return f.degree(), lead, [(j, (log[c] + shift) % n) for j, c in enumerate(f.coeffs[:-1]) if c]


def _log_reduce(rem: list[int], divisor, n: int, zech) -> list[int]:
    """rem, given by coefficient logs, reduced modulo a divisor from
    _log_divisor, in place: returns rem[:degree], the remainder. Each entry
    above it is left at the value it had when its position was cleared, as
    no later step writes at or above the position it clears."""
    db, _, terms = divisor
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c >= 0:
            # subtracting g**c / f_lead * x**(i - db) * f clears position i
            # exactly and adds g**c * (-f_j / f_lead) below it
            base = i - db
            for j, y in terms:
                t = (c + y) % n
                r = rem[base + j]
                if r < 0:
                    rem[base + j] = t
                else:
                    z = zech[t - r]  # as in _log_mul
                    rem[base + j] = (r + z) % n if z >= 0 else -1
    return rem[:db]


def _log_divide(rem: list[int], divisor, n: int, zech) -> list[int]:
    """Divide rem, given by coefficient logs, by a divisor from _log_divisor:
    returns the quotient's logs, log(c / f_lead) for each entry c that
    _log_reduce leaves above the remainder, and leaves the remainder in
    rem[:degree]."""
    db, lead, _ = divisor
    _log_reduce(rem, divisor, n, zech)
    return [(c - lead) % n if c >= 0 else -1 for c in rem[db:]]


class Polynomial:
    """Dense polynomial with coefficients in one field, constant term first.

    Coefficients are stored as element indices; the zero polynomial has an
    empty tuple and degree -1. Instances are immutable and hashable.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, fd: FieldDescriptor, coeffs: Iterable[int | FieldElement]):
        idxs = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field._key != fd._key:
                    raise ValueError("mixed-field coefficients")
                idxs.append(c.idx)
            else:
                if not 0 <= c < fd.Q:
                    raise ValueError(f"coefficient index {c} out of range for GF({fd.Q})")
                idxs.append(int(c))
        while idxs and idxs[-1] == 0:
            idxs.pop()
        self.field = fd
        self.coeffs = tuple(idxs)

    @classmethod
    def _trusted(cls, fd: FieldDescriptor, idxs: list[int]) -> "Polynomial":
        """A polynomial from indices already in range for fd; only trims
        trailing zeros (in place) and skips the public checks."""
        while idxs and idxs[-1] == 0:
            idxs.pop()
        f = object.__new__(cls)
        f.field = fd
        f.coeffs = tuple(idxs)
        return f

    @classmethod
    def _from_logs(cls, fd: FieldDescriptor, logs: list[int]) -> "Polynomial":
        """A polynomial from its coefficient logs, -1 for zero."""
        exp = fd._expv
        return cls._trusted(fd, [exp[c] if c >= 0 else 0 for c in logs])

    def _logs(self) -> list[int]:
        log = self.field._logv
        return [log[c] for c in self.coeffs]  # log[0] = -1

    # -- constructors --------------------------------------------------------

    @classmethod
    def x(cls, fd: FieldDescriptor) -> "Polynomial":
        return cls(fd, (0, 1))

    @classmethod
    def constant(cls, fd: FieldDescriptor, c: int | FieldElement) -> "Polynomial":
        return cls(fd, (c,))

    @classmethod
    def binomial(cls, fd: FieldDescriptor, t: int, a: int | FieldElement) -> "Polynomial":
        """x**t - a."""
        if t < 1:
            raise ValueError("binomial degree must be >= 1")
        a_idx = a.idx if isinstance(a, FieldElement) else int(a)
        return cls(fd, [fd.neg_idx(a_idx)] + [0] * (t - 1) + [1])

    # -- basics ---------------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = self.field.inv_idx(lead)
        return Polynomial._trusted(self.field, [self.field.mul_idx(c, inv) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field._key == other.field._key and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field._key, self.coeffs))

    def __repr__(self):
        return f"Polynomial(GF({self.field.Q}), {list(self.coeffs)})"

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial")
        if other.field._key != self.field._key:
            raise ValueError("mixed-field operands")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fd = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = fd.add_idx(out[i], c)
        return Polynomial._trusted(fd, out)

    def __neg__(self) -> "Polynomial":
        fd = self.field
        return Polynomial._trusted(fd, [fd.neg_idx(c) for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        fd = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial._trusted(fd, [])
        prod = _log_mul(self._logs(), other._logs(), fd.Q - 1, fd.zech_table())
        return Polynomial._from_logs(fd, prod)

    def scale(self, c: int | FieldElement) -> "Polynomial":
        fd = self.field
        c_idx = c.idx if isinstance(c, FieldElement) else int(c)
        return Polynomial._trusted(fd, [fd.mul_idx(x, c_idx) for x in self.coeffs])

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        fd = self.field
        db = other.degree()
        rem = self._logs()
        quo = _log_divide(rem, _log_divisor(other), fd.Q - 1, fd.zech_table())
        return Polynomial._from_logs(fd, quo), Polynomial._from_logs(fd, rem[:db])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        self._check(other)
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Polynomial":
        fd = self.field
        p = fd.p
        out = []
        for i in range(1, len(self.coeffs)):
            scalar = i % p
            out.append(fd.mul_idx(self.coeffs[i], scalar) if scalar else 0)
        return Polynomial._trusted(fd, out)

    def compose_power(self, t: int) -> "Polynomial":
        """f(x**t)."""
        if t < 1:
            raise ValueError("t must be >= 1")
        out = [0] * (self.degree() * t + 1) if self.coeffs else []
        for i, c in enumerate(self.coeffs):
            out[i * t] = c
        return Polynomial(self.field, out)

    # -- evaluation -------------------------------------------------------------

    def eval_idx(self, a: int) -> int:
        fd = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = fd.add_idx(fd.mul_idx(acc, a), c)
        return acc

    def __call__(self, a: int | FieldElement) -> FieldElement:
        a_idx = a.idx if isinstance(a, FieldElement) else int(a)
        return FieldElement(self.field, self.eval_idx(a_idx))

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"field": self.field.to_json(), "coeffs": list(self.coeffs)}


def poly_powmod(base: Polynomial, e: int, mod: Polynomial) -> Polynomial:
    """base**e mod mod, by binary powering from the top bit down: a square
    per bit, then a product by the reduced base for each set bit. For a
    reduced base x or x + delta, that product is a shift plus one reduction
    step. The products and reductions stay in the log domain throughout;
    0**0 is 1."""
    if e < 0:
        raise ValueError("negative exponent")
    fd = mod.field
    b = (base % mod)._logs()
    if e == 0:
        return Polynomial._trusted(fd, [1])
    n, zech = fd.Q - 1, fd.zech_table()
    divisor = _log_divisor(mod)
    monic_linear = len(b) == 2 and b[1] == 0  # b is x + g**b[0], or x if b[0] = -1
    result = b
    for bit in bin(e)[3:]:
        result = _log_reduce(_log_square(result, n, zech), divisor, n, zech)
        if bit == "1":
            if monic_linear:
                prod = _log_mul_x_plus(result, b[0], n, zech)
            else:
                prod = _log_mul(result, b, n, zech)
            result = _log_reduce(prod, divisor, n, zech)
    return Polynomial._from_logs(fd, result)


def poly_prodmod(factors: Iterable[Polynomial], mod: Polynomial) -> Polynomial:
    """The product of the factors mod mod, in the log domain like
    poly_powmod; the empty product is 1."""
    fd = mod.field
    n, zech = fd.Q - 1, fd.zech_table()
    divisor = _log_divisor(mod)
    result = [0]  # log(1) = 0
    for g in factors:
        result = _log_reduce(_log_mul(result, g._logs(), n, zech), divisor, n, zech)
    return Polynomial._from_logs(fd, result)


def distinct_degree_factors(f: Polynomial) -> Iterator[tuple[int, Polynomial]]:
    """Distinct-degree factorization of a monic squarefree f (Lidl-
    Niederreiter, Finite Fields, ch. 4): yields (i, product of the
    irreducible factors of f of degree i) for each i that has one, in
    ascending order.

    The level-i component is gcd(rest, x**(Q**i) - x), with rest what the
    lower levels left of f. Once 2i exceeds deg rest, every factor left has
    degree above half of it, so rest is one irreducible. Each component is
    yielded before rest is divided by it, so a caller that stops at the
    first yield pays for no division. That first i is the least degree of an
    irreducible factor for any monic f, squarefree or not."""
    fd = f.field
    x = Polynomial.x(fd)
    h, rest, i = x, f, 0  # h = x**(Q**i) mod rest
    while rest.degree() > 0:
        i += 1
        if 2 * i > rest.degree():
            yield rest.degree(), rest
            return
        h = poly_powmod(h, fd.Q, rest)
        comp = rest.gcd(h - x)
        if comp.degree() > 0:
            yield i, comp
            rest = rest // comp


def is_irreducible(f: Polynomial) -> bool:
    """Distinct-degree irreducibility test: f of degree n is irreducible
    iff its lowest distinct-degree level is n. The scan stops at the first
    level found, after at most n//2 steps. Requires degree >= 1."""
    n = f.degree()
    if n < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    return next(distinct_degree_factors(f.monic()))[0] == n


def binomial_irreducible_check(t: int, a: FieldElement) -> tuple[bool, tuple[bool, bool, bool]]:
    """Irreducibility of x**t - a over the field of a, decided arithmetically.

    With e the multiplicative order of a and Q the field cardinality, x**t - a
    is irreducible iff (1) gcd(t, (Q-1)/e) == 1, (2) every prime of t divides
    e, and (3) Q % 4 == 1 whenever 4 | t. Requires t >= 2 and a != 0.
    """
    if t < 2:
        raise ValueError("binomial criterion needs t >= 2")
    if a.idx == 0:
        raise ValueError("x**t is never irreducible for t >= 2; need a != 0")
    conds = nt.binomial_conditions(t, a.field.Q, mult_order(a))
    return all(conds), conds


def composed_irreducible_check(f: Polynomial, t: int) -> tuple[bool, tuple[bool, bool, bool]]:
    """Sufficient conditions for f(x**t) to stay irreducible, given f
    irreducible of degree n over GF(Q).

    With e the order of a root of f (computed as the order of x in
    GF(Q)[x]/(f), a field of cardinality Q**n), the conditions mirror the
    binomial criterion with Q**n in place of Q. t == 1 is allowed and the
    verdict is then vacuously true. Raises on a reducible f and on f with a
    zero constant term (the root 0 has no multiplicative order).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not is_irreducible(f):
        raise ValueError("f must be irreducible")
    if f.coeffs[0] == 0:
        # f is then a scalar multiple of x and its root 0 has no order
        raise ValueError("f must have a nonzero constant term")
    fd = f.field
    n = f.degree()
    Qn = fd.Q**n
    fm = f.monic()
    # order of x modulo f by exponent descent from Q**n - 1
    one = Polynomial(fd, (1,))
    e = Qn - 1
    for r, _ in nt.factorize(Qn - 1).factors:
        while e % r == 0 and poly_powmod(Polynomial.x(fd), e // r, fm) == one:
            e //= r
    conds = nt.binomial_conditions(t, Qn, e)
    return all(conds), conds


def pth_root_poly(f: Polynomial) -> Polynomial:
    """For f with zero derivative, the g with g(x)**p == f(x).

    Such an f has nonzero coefficients only at exponents divisible by p, and
    the coefficient p-th root is c -> c**(Q/p)."""
    fd = f.field
    p = fd.p
    root_exp = fd.Q // p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(fd.pow_idx(c, root_exp) if c else 0)
        elif c != 0:
            raise ValueError("polynomial is not a p-th power")
    return Polynomial(fd, out)


def squarefree_part(f: Polynomial) -> Polynomial:
    """The monic product of the distinct irreducible factors of f; when
    gcd(f, f') = 1, f is squarefree and is returned monic after that one
    gcd."""
    if f.degree() < 0:
        raise ValueError("zero polynomial")
    if f.degree() == 0:
        return Polynomial(f.field, (1,))
    f = f.monic()
    d = f.derivative()
    if d.is_zero():
        return squarefree_part(pth_root_poly(f))
    g = f.gcd(d)
    if g.degree() == 0:  # f is squarefree
        return f
    w = f // g  # product of factors with multiplicity not divisible by p
    # factors of g that vanish in w have multiplicity divisible by p
    rest = g
    while True:
        c = rest.gcd(w)
        if c.degree() == 0:
            break
        rest = rest // c
    if rest.degree() == 0:
        return w
    return w * squarefree_part(pth_root_poly(rest))


def squarefree_layers(f: Polynomial) -> list[tuple[int, Polynomial]]:
    """The squarefree decomposition of a nonzero f (von zur Gathen-Gerhard,
    Modern Computer Algebra, ch. 14): [(e, A_e)] by ascending e for each
    A_e != 1, the monic product of the factors of multiplicity exactly e.
    With F_1 = f monic, S_e = squarefree_part(F_e) holds the factors of
    multiplicity >= e, F_{e+1} = F_e / S_e and A_e = S_e / S_{e+1}; once
    S_e has the degree of F_e, A_e = S_e, so a squarefree f costs one
    squarefree_part, that is one gcd, and no division."""
    F = f.monic()
    S = squarefree_part(F)
    layers, e = [], 1
    while S.degree() < F.degree():
        F = F // S
        below = squarefree_part(F)
        layers.append((e, S // below))
        S, e = below, e + 1
    return [(e, A) for e, A in layers + [(e, S)] if A.degree() > 0]


def _split_linear(L: Polynomial, start: int = 0) -> list[int]:
    """Root indices of a monic product L of distinct linear factors, by
    deterministic equal-degree splitting (Cantor-Zassenhaus) with the
    splitting elements delta_j, j = start, start + 1, ...

    p = 2: delta_j = x**j for j < k; the roots with Tr(delta * r) = 0 are
    those of Tr(delta * x) mod L, and Tr(delta * (r1 - r2)) cannot vanish on
    the whole basis. Odd p: delta_j = g**(j+1) up to g**(Q-1) = 1, then 0;
    the roots with r + delta a nonzero square are those of
    (x + delta)**((Q-1)/2) - 1, and these delta cover the field. Either way
    some delta separates any two distinct roots. Generator powers lie in no
    proper subfield, unlike the small indices, which matters when the roots
    share a subfield in which every element is a square. A delta that fails
    on L fails on its factors, so they resume after the one that split L."""
    fd = L.field
    n = L.degree()
    if n <= 0:
        return []
    if n == 1:
        return [fd.neg_idx(L.coeffs[0])]
    for j in range(start, fd.k if fd.p == 2 else fd.Q):
        if fd.p == 2:
            t = Polynomial(fd, (0, 1 << j))  # delta * x, already reduced as n >= 2
            h = t
            for _ in range(fd.k - 1):
                t = (t * t) % L
                h = h + t
        else:
            delta = fd.pow_idx(fd.generator_index, j + 1) if j < fd.Q - 1 else 0
            h = poly_powmod(Polynomial(fd, (delta, 1)), (fd.Q - 1) // 2, L) - Polynomial(fd, (1,))
        d = L.gcd(h)
        if 0 < d.degree() < n:
            return _split_linear(d, j + 1) + _split_linear(L // d, j + 1)
    raise RuntimeError("no splitting element found")  # unreachable for distinct roots


def lift(f: Polynomial, ext: FieldDescriptor) -> Polynomial:
    """f with its coefficients mapped into ext, which its field must embed in."""
    emb = get_embedding(f.field, ext)
    return Polynomial(ext, [emb.map_idx(c) for c in f.coeffs])


def roots_in_extension(f: Polynomial, ext: FieldDescriptor) -> list[FieldElement]:
    """The distinct roots of f in the extension field, sorted by element
    index. The coefficient field must embed in ext.

    They are the roots of L = gcd(g, x**Q - x) for g the monic lift of f to
    ext, found by splitting L; the cost is polynomial in deg f and log Q,
    with no pass over the field. A linear g is its own L."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    g = lift(f, ext).monic()
    if g.degree() < 1:
        return []
    x = Polynomial.x(ext)
    L = g if g.degree() == 1 else g.gcd(poly_powmod(x, ext.Q, g) - x)
    return [FieldElement(ext, r) for r in sorted(_split_linear(L))]
