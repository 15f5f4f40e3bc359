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
from .intmat import det
from .lattice import Lattice4, _solve_int, _vecmat, norm_keys
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
    inv = ord_prime.invariant_factors
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
    Only the first candidate of each left ideal O gamma is tried: every
    generator of one left ideal gives the same verdict (see _ideal_key), so
    the result is the same as trying them all.
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
    splittings = {}
    for n in _candidate_norms(sorted(spec.primes), spec.k_max):
        local = _local_maps(mo_lat, n, splittings)
        tried = set()
        for height in heights:
            for key in norm_keys(mo_lat, n, height):
                ideal = _ideal_key(mo_lat, key, local)
                if ideal in tried:
                    continue
                tried.add(ideal)
                gamma = mo.quat_from_frame(key, mo_lat.den)
                conj = _try_conjugator(ord_lat, level, gamma)
                if conj is not None:
                    return gamma, conj
    return None


def _local_maps(mo_lat: Lattice4, n: int, cache: dict) -> list:
    """(p, e, columns) for each prime power p^e exactly dividing n.

    columns holds the four entries' coefficient columns of _split_images,
    so _vecmat(coords, columns) is phi of the element with those basis
    coordinates; it is None where _split_images skips p.  cache keeps each
    (p, e) set up once per search.
    """
    local = []
    for p, e in sorted(factorize(n).items()):
        if (p, e) not in cache:
            images = _split_images(mo_lat, p, e)
            cache[p, e] = None if images is None else tuple(zip(*images))
        local.append((p, e, cache[p, e]))
    return local


def _split_images(mo_lat: Lattice4, p: int, e: int):
    """Images in M2(Z/p^e) of the maximal order's basis, or None if p is skipped.

    The algebra (a, b) has I^2 = a and J^2 = b.  For odd p not dividing
    a b disc, I -> [[0, 1], [a, 0]] and J -> [[x, y], [-a y, -x]] with
    x^2 - a y^2 = b mod p^e extend to a ring map O -> M2(Z/p^e), which is
    onto exactly when the four basis images have a unit determinant mod p;
    then it induces O / p^e O = M2(Z/p^e).  A matrix is the tuple
    (m00, m01, m10, m11).  The map is read off the basis's (1, I, J, IJ)
    coordinates.  When none has p in its denominator, O_p lies in
    Z_p<I, J>, which is maximal at p, so the two agree and the images span;
    an order such as gamma O gamma^-1 with p | nrd(gamma) can differ from
    Z_p<I, J> and then has such a coordinate.  Every other prime (2, the
    divisors of a b disc, and p in a basis denominator) gives None, and
    _ideal_key falls back to the class mod p^e O there.
    """
    mo = mo_lat.order
    a, b = mo.alg.p, mo.alg.q
    if p == 2 or (a * b * mo.alg.discriminant) % p == 0:
        return None
    q = p**e
    x, y = _conic_point(a, b, p, e)
    # entry columns of the images of 1, I, J and IJ = [[-a y, -x], [a x, a y]]
    ijk_cols = tuple(zip((1, 0, 0, 1), (0, 1, a, 0), (x, y, -a * y, -x),
                         (-a * y, -x, a * x, a * y)))
    images = []
    for row in mo_lat.mat:
        num = _vecmat(row, mo._t_cols)
        den = mo_lat.den * mo._t_den
        g = gcd(den, *num)
        num, den = [v // g for v in num], den // g
        if den % p == 0:
            return None
        inv = pow(den, -1, q)
        images.append(tuple(v * inv % q for v in _vecmat(num, ijk_cols)))
    if det(images) % p == 0:
        raise TheoremViolation(f"basis images do not span M2(Z/{p})")
    return tuple(images)


def _conic_point(a: int, b: int, p: int, e: int) -> tuple[int, int]:
    """(x, y) with x^2 - a y^2 = b mod p^e, for odd p not dividing a b.

    A scan over y finds a point mod p (the conic always has one); one of
    x, y is then a unit, and Newton steps on that coordinate lift the point,
    each step at least doubling the precision.
    """
    q = p**e
    roots = {}
    for x in range(p):
        roots.setdefault(x * x % p, x)
    for y in range(p):
        x = roots.get((b + a * y * y) % p)
        if x is not None:
            break
    else:
        raise TheoremViolation(f"no point on x^2 - {a} y^2 = {b} mod {p}")
    for _ in range(e):
        f = (x * x - a * y * y - b) % q
        if x % p:
            x = (x - f * pow(2 * x, -1, q)) % q
        else:
            y = (y + f * pow(2 * a * y, -1, q)) % q
    if (x * x - a * y * y - b) % q:
        raise TheoremViolation(f"Hensel lift of the conic point failed mod {q}")
    return x, y


def _ideal_key(mo_lat: Lattice4, key, local) -> tuple:
    """A key of the left ideal O gamma for a candidate gamma of norm n.

    key is the candidate's den-scaled frame tuple, as norm_keys(mo_lat, ...)
    yields it, and local is _local_maps(mo_lat, n, ...).  Candidates with
    equal keys give the same verdict, because they generate the same left
    ideal:

    - O gamma' = O gamma exactly when u = gamma' gamma^-1 lies in O^x, and
      then gamma' L gamma'^-1 = u (gamma L gamma^-1) u^-1.  Conjugation by
      u maps O onto O, so the conjugate is contained in O, of the same
      level and balanced exactly when gamma L gamma^-1 is (Voight,
      Quaternion Algebras, ch. 16).
    - O gamma contains n = conj(gamma) gamma, hence nO, so it equals O away
      from n and is fixed by its localizations at the p dividing n: equal
      local ideals at every p | n give equal global left ideals.
    - Where p is skipped (columns None), the component is gamma's
      coordinates mod p^e.  gamma' = gamma mod p^e O puts gamma' in
      gamma + p^e O_p, inside O_p gamma, so both generate one local ideal;
      the key is exact but finer than the ideal there.
    - Where p splits, O_p gamma corresponds to the row space of
      M = phi(gamma) in (Z/p^e)^2.  For primitive gamma (M nonzero mod p)
      det M = nrd(gamma) has valuation e, so M has Smith form diag(1, p^e)
      and its row space is cyclic of order p^e, generated by any row with a
      unit entry; scaled to (1, t) or (s, 1) with p | s, that generator is
      unique, a point of P^1(Z/p^e) (Kirschmer-Voight, SIAM J. Comput. 39
      (2010)).  If M = 0 mod p, gamma = p gamma' locally with nrd(gamma')
      of valuation e - 2, and the component is that of M / p at p^(e-2).
    """
    coords = _solve_int(mo_lat.mat, key)
    if coords is None:
        raise TheoremViolation(
            f"conjugator candidate {tuple(key)} / {mo_lat.den} lies outside the maximal order")
    parts = []
    for p, e, columns in local:
        q = p**e
        if columns is None:
            parts.append(tuple(c % q for c in coords))
        else:
            parts.append(_row_point(_vecmat(coords, columns), p, e))
    return tuple(parts)


def _row_point(m, p: int, e: int):
    """The normalized generator of the row space of m = phi(gamma) mod p^e.

    m may hold any integer representatives of its entries mod p^e.
    """
    if e == 0:
        return ()
    q = p**e
    for v0, v1 in ((m[0], m[1]), (m[2], m[3])):
        if v0 % p:
            return (1, v1 * pow(v0, -1, q) % q)
        if v1 % p:
            return (v0 * pow(v1, -1, q) % q, 1)
    if e == 1:
        raise TheoremViolation(f"norm-{p} candidate maps to 0 in M2(Z/{p})")
    return ("p", _row_point(tuple(v // p % p ** (e - 2) for v in m), p, e - 2))


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
