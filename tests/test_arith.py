import random

import sympy

from quatlat.arith import (
    divisor_count,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    mobius,
    omega,
    primes_in_range,
    radical,
    smallest_root_multiple,
    sqrt_ceil_of_product,
    squarefree_divisors,
)

from oracles import naive_divisor_count, naive_mobius, naive_phi


def test_primality_against_sympy():
    for n in range(2, 2000):
        assert is_prime(n) == sympy.isprime(n), n
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10**9)
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_reconstructs():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 10**7)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_small_multiplicative_functions():
    assert omega(1) == 0
    for n in range(1, 400):
        assert divisor_count(n) == naive_divisor_count(n)
        assert euler_phi(n) == naive_phi(n)
        assert mobius(n) == naive_mobius(n)
        assert is_squarefree(n) == (naive_mobius(n) != 0)
        assert omega(n) == len(sympy.factorint(n))


def test_divisors_and_radical():
    for n in (1, 12, 36, 97, 720, 1024):
        ds = divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)
        rad = 1
        for p in sympy.factorint(n):
            rad *= p
        assert radical(n) == rad
        for d in squarefree_divisors(n):
            assert n % d == 0 and is_squarefree(d)
        assert len(squarefree_divisors(n)) == 2 ** omega(n)


def test_primes_in_range_matches_sieve():
    got = primes_in_range(10, 60)
    assert list(got) == [p for p in range(10, 61) if sympy.isprime(p)]


def test_sqrt_ceil_of_product_is_sound():
    rng = random.Random(3)
    for _ in range(500):
        t = rng.uniform(0.1, 9.0)
        m = rng.randrange(1, 10**6)
        k = sqrt_ceil_of_product(t, m)
        v = t * (m**0.5)
        assert k >= v - 1e-6
        assert k - 1 < v + 1e-6
    assert sqrt_ceil_of_product(1.0, 49) == 7
    assert sqrt_ceil_of_product(0.0, 10) == 0


def test_square_helpers():
    assert smallest_root_multiple(12) == 6
    assert smallest_root_multiple(1) == 1
    for n in range(1, 300):
        t = smallest_root_multiple(n)
        assert t * t % n == 0
        assert all((s * s) % n for s in range(1, t))
