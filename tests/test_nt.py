"""Integer helpers: factorization, multiplicative functions, the subgroup
bound M(h), and the t-selection rule.

Oracles: naive trial-division reimplementations inside this file,
hand-checked frozen values, sympy's primefactors for condition 2 of the
binomial criterion, and sympy's isprime, primerange and perfect_power for
the Miller-Rabin primality and prime-power tests.
"""


import pytest
from sympy import isprime, nextprime, perfect_power, primefactors, prevprime, primerange

from ffwitness import nt


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


def test_factorize_frozen():
    assert nt.factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert nt.factorize(1).factors == ()
    assert nt.factorize(97).factors == ((97, 1),)


def test_factorize_reconstructs():
    for n in range(1, 400):
        fac = nt.factorize(n)
        prod = 1
        for p, e in fac.factors:
            assert naive_is_prime(p)
            prod *= p**e
        assert prod == n


def test_divisors_match_naive():
    for n in (1, 2, 12, 36, 97, 120, 360):
        assert sorted(nt.factorize(n).divisors()) == naive_divisors(n)


def test_is_prime_matches_naive():
    for n in range(0, 600):
        assert nt.is_prime(n) == naive_is_prime(n)


def test_is_prime_power_frozen():
    assert nt.is_prime_power(8) == (2, 3)
    assert nt.is_prime_power(9) == (3, 2)
    assert nt.is_prime_power(121) == (11, 2)
    assert nt.is_prime_power(12) is None
    assert nt.is_prime_power(1) is None
    assert nt.is_prime_power(0) is None


def test_prime_powers_in_frozen():
    assert list(nt.prime_powers_in(2, 32)) == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    ]


def test_tau_phi_moebius_match_naive():
    for n in range(1, 300):
        divs = naive_divisors(n)
        assert nt.tau(n) == len(divs)
        assert nt.phi(n) == sum(
            1 for a in range(1, n + 1) if naive_gcd(a, n) == 1
        )
    # Moebius by squarefree inspection
    assert [nt.moebius(n) for n in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0,
    ]


def naive_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_largest_prime_power_part():
    assert nt.largest_prime_power_part(48) == (2, 4)
    assert nt.largest_prime_power_part(45) == (3, 2)
    assert nt.largest_prime_power_part(100) == (5, 2)
    assert nt.largest_prime_power_part(2) == (2, 1)


def naive_m_of_h(q, h):
    # largest r**min(v_r(q-1), e_max) over primes r | q-1, where e_max is
    # the largest e with (r**e * h)**2 <= q
    best = 1
    for r in (r for r in range(2, q) if (q - 1) % r == 0 and all(r % s for s in range(2, r))):
        e = 0
        while (r ** (e + 1) * h) ** 2 <= q:
            e += 1
        while (q - 1) % r ** e:  # down to r**v_r(q-1) when that is smaller
            e -= 1
        best = max(best, r**e)
    return best


@pytest.mark.parametrize(
    "q,h,want",
    [(257, 2, 8), (9, 2, 1), (81, 2, 4), (17, 2, 2), (7, 2, 1), (121, 2, 5)],
)
def test_m_of_h_frozen(q, h, want):
    assert nt.m_of_h(q, h) == want


def test_m_of_h_matches_naive():
    for q in nt.prime_powers_in(3, 300):
        for h in (1, 2, 3):
            assert nt.m_of_h(q, h) == naive_m_of_h(q, h)


def test_m_of_h_rejects_bad_input():
    with pytest.raises(ValueError):
        nt.m_of_h(6, 2)
    with pytest.raises(ValueError):
        nt.m_of_h(2, 2)


@pytest.mark.parametrize(
    "q,h,want",
    [(81, 2, (2, 4)), (17, 2, (2, 2)), (9, 2, (2, 1)), (7, 2, (3, 1)), (257, 2, (2, 8))],
)
def test_choose_t_frozen(q, h, want):
    assert nt.choose_t(q, h) == want


def test_choose_t_bound_holds():
    # t always comes from the largest prime power part of q-1 and respects
    # the size constraint t**2 * h**2 <= q whenever t > 1
    for q in nt.prime_powers_in(5, 400):
        for h in (2, 3):
            r, t = nt.choose_t(q, h)
            assert (q - 1) % r == 0
            if t > 1:
                assert t * t * h * h <= q
                assert t % r == 0


def test_choose_t_rejects_q2():
    with pytest.raises(ValueError):
        nt.choose_t(2, 3)


@pytest.mark.parametrize("e", [1, 2, 12, 48, 105, 720, 2310, 4096])
def test_binomial_condition_2_matches_primefactors(e):
    # condition 2, decided by repeated gcds, against sympy's factoring
    for t in range(1, 2001):
        assert nt.binomial_conditions(t, e + 1, e)[1] == all(e % r == 0 for r in primefactors(t)), (t, e)


def test_prime_and_prime_power_tests_match_sympy():
    powers = {p**k: (p, k) for p in primerange(2, 20_000) for k in range(1, 15) if p**k < 20_000}
    for n in range(20_000):
        assert nt.is_prime(n) == isprime(n), n
        assert nt.is_prime_power(n) == powers.get(n), n


def test_prime_powers_near_2_62():
    # p**k just below 2**62 for k = 1, 2, 3, 5, 31 and 62, and their neighbours
    for k in (1, 2, 3, 5, 31, 62):
        p = prevprime(round(2 ** (62 / k)) + 1) if k < 62 else 2
        q = p**k
        assert nt.is_prime_power(q) == (p, k)
        for n in (q - 1, q + 1, q * nextprime(p) // p):
            pp = perfect_power(n)
            want = (n, 1) if isprime(n) else tuple(pp) if pp and isprime(pp[0]) else None
            assert nt.is_prime_power(n) == want, n
    assert nt.is_prime(2**61 - 1) and not nt.is_prime(3825123056546413051)  # a strong pseudoprime to 2..23
    with pytest.raises(ValueError, match="2\\*\\*63"):
        nt.is_prime(2**63)
    with pytest.raises(ValueError, match="2\\*\\*63"):
        nt.is_prime_power(2**63 + 1)
