"""Search for balanced conjugates of orders inside the maximal order.

An order is balanced when its largest invariant factor in the maximal order
divides the rounded square root of its index.  Not every order is balanced,
but a conjugate with the same level often is; this module searches for such
a conjugate among elements of the maximal order whose norm is a product of
the order's bad primes.  The search is bounded, deterministic, and may miss:
a miss is reported as absence, never as impossibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import factorize
from .errors import TheoremViolation, UsageError
from .lattice import Lattice4, _solve_int, norm_keys
from .quat import Quat


@dataclass(frozen=True)
class BalanceSearchSpec:
    ord: Lattice4
    primes: frozenset[int]
    k_max: int
    height_max: int

    def __post_init__(self):
        if not self.ord.is_order():
            raise UsageError("balance search needs an order")
        if self.k_max < 1 or self.height_max < 1:
            raise UsageError("k_max and height_max must be positive")
        level_primes = set(factorize(self.ord.level()))
        if not level_primes <= set(self.primes):
            raise UsageError("primes must cover the prime divisors of the level")


def smith_condition(ord_prime: Lattice4) -> bool:
    """Per-prime ceiling condition on the invariant factor exponents.

    With local exponents (m1, m2, m3) of the last three invariant factors
    at p, requires m3 <= ceil((m1 + m2 + m3) / 2).  Equivalent to the
    divisibility form of balancedness, prime by prime.
    """
    inv = ord_prime.invariant_factors_in(ord_prime.order.lattice)
    a2, a3, a4 = inv.factors[1], inv.factors[2], inv.factors[3]
    index = a2 * a3 * a4
    for p in factorize(index):
        m1 = _valuation(a2, p)
        m2 = _valuation(a3, p)
        m3 = _valuation(a4, p)
        if m3 > -((m1 + m2 + m3) // -2):
            return False
    return True


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _candidate_norms(primes, k_max: int) -> list[int]:
    """Products of the given primes with total exponent in [1, k_max], ascending."""
    norms = {1}
    for _ in range(k_max):
        norms |= {n * p for n in norms for p in primes}
    norms.discard(1)
    return sorted(norms)


def balanced_search(spec: BalanceSearchSpec):
    """Find a conjugate of the order that is balanced in the maximal order.

    Returns (conjugator, conjugate) or None when the bounded search misses.
    Already-balanced input returns the identity immediately.  Candidates are
    scanned by increasing norm n, then increasing coordinate height, elements
    in sorted coordinate order; the first hit in that order is returned.
    Only the first candidate of each class mod nO is tried: every member of
    a class gives the same verdict (see _class_key), so the result is the
    same as trying them all.
    """
    ord_lat = spec.ord
    mo = ord_lat.order
    if ord_lat.is_balanced():
        return mo.alg.one(), ord_lat
    level = ord_lat.level()
    mo_lat = mo.lattice
    heights = []
    height = 2
    while height < spec.height_max:
        heights.append(height)
        height *= 2
    heights.append(spec.height_max)  # one final pass exactly at the cap
    for n in _candidate_norms(sorted(spec.primes), spec.k_max):
        tried = set()
        for height in heights:
            for key in norm_keys(mo_lat, n, height):
                cls = _class_key(mo_lat, key, n)
                if cls in tried:
                    continue
                tried.add(cls)
                gamma = mo.quat_from_frame(key, mo_lat.den)
                conj = _try_conjugator(ord_lat, level, gamma)
                if conj is not None:
                    return gamma, conj
    return None


def _class_key(mo_lat: Lattice4, key, n: int) -> tuple[int, ...]:
    """Coordinates of a candidate in the maximal order's basis, reduced mod n.

    key is the candidate's den-scaled frame tuple, as norm_keys(mo_lat, ...)
    yields it.  Candidates of norm n with equal keys give the same verdict.
    If g' = g mod nO, then g' lies in g + nO = g + O conj(g) g, inside Og, so
    u = g' g^-1 lies in O with nrd 1: a unit of O.  Conjugation by u maps O
    onto O, so g' L g'^-1 = u (g L g^-1) u^-1 is contained in O, of the same
    level and balanced exactly when g L g^-1 is (Voight, Quaternion
    Algebras, ch. 16).
    """
    coords = _solve_int(mo_lat.mat, key)
    if coords is None:
        raise TheoremViolation(
            f"conjugator candidate {tuple(key)} / {mo_lat.den} lies outside the maximal order")
    return tuple(c % n for c in coords)


def _try_conjugator(ord_lat: Lattice4, level: int, gamma: Quat):
    """Conjugate, require containment in the maximal order, check balance."""
    conj = ord_lat.conjugate_by(gamma)
    mo_lat = ord_lat.order.lattice
    if not conj.is_sublattice_of(mo_lat):
        return None
    if conj.level() != level:
        return None
    if not conj.is_balanced():
        return None
    return conj


def eichler_invariant_profile(n: int) -> tuple[int, int, int, int]:
    """Expected balanced invariant factors (1, 1, a, b) for level n.

    Each prime power p^e in n contributes p^floor(e/2) to a and
    p^ceil(e/2) to b; squarefree n gives (1, 1, 1, n).
    """
    if n < 1:
        raise UsageError("level must be positive")
    a = b = 1
    for p, e in factorize(n).items():
        a *= p ** (e // 2)
        b *= p ** (e - e // 2)
    if gcd(a, b) != a:
        raise UsageError("profile must be a divisibility chain")
    return (1, 1, a, b)
