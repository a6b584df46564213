"""Integer arithmetic helpers: factorization, multiplicative functions, and
the exponent-selection rules used by the set constructions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

# Trial division is exact but quadratic in the bit length; keep inputs small.
FACTOR_CAP = 1 << 63


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def prime_divisors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        """All positive divisors of n, ascending."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)


def factorize(n: int) -> Factorization:
    """Factor n by trial division. Requires 1 <= n < 2**63."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"factorize requires a positive integer, got {n!r}")
    if n >= FACTOR_CAP:
        raise ValueError(f"factorize input {n} exceeds cap 2**63")
    m = n
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


# Miller-Rabin with these bases is exact below 3.3 * 10**24, far beyond 2**63
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test. Requires n < 2**63."""
    if n >= FACTOR_CAP:
        raise ValueError(f"is_prime input {n} exceeds cap 2**63")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2**s * d, d odd
    d = (n - 1) >> s
    # n is a strong probable prime to base b when b**d = 1 or some
    # b**(d * 2**r) = -1, r < s
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s)) for b in _MR_BASES)


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n == p**k, or None if n is no prime power. Needs n < 2**63."""
    if n < 2:
        return None
    if is_prime(n):
        return n, 1
    # below 2**63 a float k-th root of a k-th power rounds to the exact root
    for k in range(2, n.bit_length()):
        r = round(n ** (1 / k))
        if r**k == n and is_prime(r):
            return r, k
    return None


def prime_powers_in(lo: int, hi: int) -> Iterator[int]:
    """All prime powers q with lo <= q <= hi, ascending, each tested only
    when the caller asks for it."""
    return (n for n in range(max(lo, 2), hi + 1) if is_prime_power(n) is not None)


def tau(n: int) -> int:
    """Number of positive divisors of n."""
    out = 1
    for _, e in factorize(n).factors:
        out *= e + 1
    return out


def phi(n: int) -> int:
    """Euler totient of n."""
    out = n
    for p, _ in factorize(n).factors:
        out = out // p * (p - 1)
    return out


def moebius(n: int) -> int:
    f = factorize(n)
    for _, e in f.factors:
        if e > 1:
            return 0
    return -1 if len(f.factors) % 2 else 1


def largest_prime_power_part(n: int) -> tuple[int, int]:
    """The prime p maximizing p**v_p(n), returned as (p, v_p(n)).

    Ties are impossible: distinct primes give distinct prime powers.
    Requires n >= 2.
    """
    if n < 2:
        raise ValueError("largest_prime_power_part requires n >= 2")
    best = max(factorize(n).factors, key=lambda pe: pe[0] ** pe[1])
    return best


def _check_prime_power(q: int) -> tuple[int, int]:
    pk = is_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    return pk


def _max_exponent(r: int, h: int, q: int) -> int:
    # Largest e >= 0 with (r**e * h)**2 <= q, by exact integer comparison.
    e = 0
    while (r ** (e + 1) * h) ** 2 <= q:
        e += 1
    return e


def m_of_h(q: int, h: int) -> int:
    """max over primes r | q-1 of r**min(v_r(q-1), e) where e is the largest
    exponent with r**e * h <= sqrt(q).

    The inner comparison r**e <= sqrt(q)/h is evaluated exactly as
    (r**e)**2 * h**2 <= q. Requires q a prime power >= 3 and h >= 1.
    """
    _check_prime_power(q)
    if q < 3 or h < 1:
        raise ValueError("m_of_h requires a prime power q >= 3 and h >= 1")
    best = 1
    for r, v in factorize(q - 1).factors:
        e = min(v, _max_exponent(r, h, q))
        best = max(best, r**e)
    return best


def choose_t(q: int, h: int) -> tuple[int, int]:
    """Pick (r, t): r is the prime whose power in q-1 is the largest prime
    power part of q-1, and t = r**e is maximal with t*h <= sqrt(q) exactly
    (t**2 * h**2 <= q). The exponent is not clamped by v_r(q-1).

    Requires q a prime power >= 3 and h >= 1.
    """
    _check_prime_power(q)
    if q < 3 or h < 1:
        raise ValueError("choose_t requires a prime power q >= 3 and h >= 1")
    r, _ = largest_prime_power_part(q - 1)
    t = r ** _max_exponent(r, h, q)
    return r, t


def binomial_conditions(t: int, Q: int, e: int) -> tuple[bool, bool, bool]:
    """The three conditions of the binomial criterion for x**t - a over
    GF(Q), with e the multiplicative order of a: (1) gcd(t, (Q-1)/e) == 1,
    (2) every prime of t divides e, (3) Q % 4 == 1 whenever 4 | t. Requires
    e | Q - 1."""
    c1 = math.gcd(t, (Q - 1) // e) == 1
    # every prime of t divides e exactly when dividing t by gcd(t, e), over
    # and over, leaves 1: no factoring of t, which can take unbounded time
    rest, g = t, math.gcd(t, e)
    while g > 1:
        rest //= g
        g = math.gcd(rest, e)
    c2 = rest == 1
    c3 = (Q % 4 == 1) if t % 4 == 0 else True
    return c1, c2, c3
