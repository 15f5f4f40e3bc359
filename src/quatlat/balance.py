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
from itertools import combinations, product
from math import gcd

from .arith import factorize
from .counting import MAX_SWEEP_SLICES
from .errors import TheoremViolation, UsageError
from .intmat import det
from .lattice import Lattice4, _solve_int, _vecmat
from .quat import Quat, mul_num, norm_num
from .walk import box_slice_count, norm_keys


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
        # (2 h den + 1)^3 bounds the search's last box without a Hermite form
        h, mo_lat = self.height_max, self.ord.order.lattice
        if ((2 * h * mo_lat.den + 1) ** 3 > MAX_SWEEP_SLICES
                and box_slice_count(mo_lat, h) > MAX_SWEEP_SLICES):
            raise UsageError(f"height {h} gives a box of more than "
                             f"{MAX_SWEEP_SLICES:,} slices; lower the height")
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
    the result is the same as trying them all.  A tried gamma is rejected
    on its four conjugated basis rows when gamma L gamma^-1 is not in O,
    before any Hermite form is built (see _try_conjugator).
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
        local = _local_maps(mo_lat, n, spec.k_max, splittings)
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


def _local_maps(mo_lat: Lattice4, n: int, k_max: int, cache: dict) -> list:
    """(p, e, columns) for each prime power p^e exactly dividing n, e <= k_max.

    columns holds the four entries' coefficient columns of _split_images
    mod p^e, so _vecmat(coords, columns) is phi of the element with those
    basis coordinates; it is None at a ramified p.  cache keeps one
    splitting per prime, built at p^k_max on first use and reduced mod p^e.
    """
    local = []
    for p, e in sorted(factorize(n).items()):
        if p not in cache:
            images = _split_images(mo_lat, p, k_max)
            cache[p] = None if images is None else tuple(zip(*images))
        columns = cache[p]
        if columns is not None:
            columns = tuple(tuple(v % p**e for v in col) for col in columns)
        local.append((p, e, columns))
    return local


def _split_images(mo_lat: Lattice4, p: int, e: int):
    """Images in M2(Z/p^e) of the maximal order's basis, or None at a ramified p.

    At an unramified p, O/pO = M2(F_p) holds x with p | nrd(x) and p not
    dividing trd(x).  Then x^2 = trd(x) x mod p, so eps = x / trd(x) is a
    rank-1 idempotent mod p, and eps <- 3 eps^2 - 2 eps^3 lifts it mod p^e,
    doubling the precision each step.  (O/p^eO) eps is free of rank 2 with
    basis (eps, b_k eps) for a basis element b_k of O, and phi(g) is the
    matrix of left multiplication by g on it (column j: the image of the
    j-th basis vector), so phi(gh) = phi(g) phi(h).  phi is onto exactly
    when the four images have a unit determinant mod p; then it induces
    O/p^eO = M2(Z/p^e) (Voight, Quaternion Algebras, ch. 13).  A matrix is
    the tuple (m00, m01, m10, m11).  Working in O's basis coordinates
    makes p = 2, p | ab and p in a basis denominator no special case.
    """
    mo = mo_lat.order
    if mo.discriminant % p == 0:
        return None  # O_p has no zero divisor of unit trace
    a, b = mo.alg.p, mo.alg.q
    q = p**e
    d = mo_lat.den * mo._t_den
    ijk = [_vecmat(row, mo._t_cols) for row in mo_lat.mat]  # the basis, over d
    ijk_cols = tuple(zip(*ijk))
    # x with one unit-trace coordinate fixed to 1; any coordinate would do,
    # since rank-1 idempotents span M2(F_p)
    f = next((i for i in range(4) if 2 * ijk[i][0] // d % p), 0)
    for rest in product(range(p), repeat=3):
        c = (*rest[:f], 1, *rest[f:])
        x = _vecmat(c, ijk_cols)
        t = 2 * x[0] // d
        if t % p and norm_num(x, a, b) // (d * d) % p == 0:
            break
    else:
        raise TheoremViolation(f"O/{p}O has no zero divisor of unit trace")

    def mul(g, h):  # basis coordinates of g h mod q; O is closed, so it solves
        frame = _vecmat(mul_num(_vecmat(g, ijk_cols), _vecmat(h, ijk_cols), a, b), mo._f_cols)
        coords = _solve_int(mo_lat.mat, [w * mo_lat.den for w in frame], d * d * mo._f_den)
        return tuple(w % q for w in coords)

    eps = tuple(v * pow(t, -1, q) % q for v in c)
    for _ in range((e - 1).bit_length()):
        sq = mul(eps, eps)
        eps = tuple((3 * s - 2 * v) % q for s, v in zip(sq, mul(sq, eps)))
    if mul(eps, eps) != eps:
        raise TheoremViolation(f"idempotent lift failed mod {q}")
    # (O/pO) eps is spanned by the b_i eps; take one independent of eps
    # mod p, with coordinates i, j where the pair's 2x2 minor is a unit
    basis = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    gens = [mul(u, eps) for u in basis]
    v, i, j = next((v, i, j) for v in gens for i, j in combinations(range(4), 2)
                   if (eps[i] * v[j] - eps[j] * v[i]) % p)
    inv = pow(eps[i] * v[j] - eps[j] * v[i], -1, q)

    def solve(w):  # (s, t) with w = s eps + t v, by Cramer's rule on i, j
        return ((w[i] * v[j] - w[j] * v[i]) * inv % q, (eps[i] * w[j] - eps[j] * w[i]) * inv % q)

    images = []
    for g_eps, u in zip(gens, basis):
        (m00, m10), (m01, m11) = solve(g_eps), solve(mul(u, v))
        images.append((m00, m01, m10, m11))
    if det(images) % p == 0:
        raise TheoremViolation(f"basis images do not span M2(Z/{p})")
    return tuple(images)


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
    - At a ramified p (columns None), O_p has exactly one integral left
      ideal of each norm, a power of its maximal ideal, so the component
      is () and carries no information.
    - At every other p, O_p gamma corresponds to the row space of
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
    return tuple(() if columns is None else _row_point(_vecmat(coords, columns), p, e)
                 for p, e, columns in local)


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
    """gamma L gamma^-1 when it lies in O, has L's level and is balanced, else None.

    Containment is decided first, on the four conjugated basis rows
    (Lattice4.conjugate_lies_in), so the Hermite form of the conjugate is
    built only for a gamma whose conjugate lies in O; most candidates fail
    there.
    """
    if not ord_lat.conjugate_lies_in(gamma, ord_lat.order.lattice):
        return None
    conj = ord_lat.conjugate_by(gamma)
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
