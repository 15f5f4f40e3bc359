"""Small integer-arithmetic helpers shared across the package.

Everything here is exact big-integer arithmetic; no floats.
"""

from __future__ import annotations

from math import gcd


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs and beyond.

    The witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is known to be
    deterministic below 3.3 * 10^24, far past anything this package touches.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division plus Pollard rho for the tail."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    incs = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += incs[i]
        i = (i + 1) % 8
    if n > 1:
        for p in _factor_large(n):
            out[p] = out.get(p, 0) + 1
    return dict(sorted(out.items()))


def _factor_large(n: int) -> list[int]:
    if n == 1:
        return []
    if is_prime(n):
        return [n]
    d = _pollard_rho(n)
    return sorted(_factor_large(d) + _factor_large(n // d))


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def radical(n: int) -> int:
    """Largest squarefree divisor."""
    r = 1
    for p in factorize(n):
        r *= p
    return r


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factorize(n))


def divisor_count(n: int) -> int:
    d = 1
    for e in factorize(n).values():
        d *= e + 1
    return d


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def squarefree_divisors(n: int) -> list[int]:
    ds = [1]
    for p in factorize(n):
        ds += [d * p for d in ds]
    return sorted(ds)


def mobius(n: int) -> int:
    mu = 1
    for e in factorize(n).values():
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi (inclusive)."""
    return [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]


def sqrt_ceil_of_product(t: float, m: int) -> int:
    """ceil(t * sqrt(m)) for t >= 0, m >= 0, robust against float dust."""
    if m < 0:
        raise ValueError("negative norm")
    v = t * (m**0.5)
    k = int(v)
    while k < v - 1e-12:
        k += 1
    return k


def smallest_root_multiple(n: int, factored: dict[int, int] | None = None) -> int:
    """Smallest positive N1 with n | N1^2 (so N1 = prod p^ceil(e/2)).

    factored, the factorization of n when the caller has it, spares
    factoring n again.
    """
    n1 = 1
    for p, e in (factorize(n) if factored is None else factored).items():
        n1 *= p ** ((e + 1) // 2)
    return n1
