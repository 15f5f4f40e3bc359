"""Counting lattice elements of given norms inside a hyperbolic ball.

The central object is the injection witness: integer matrices and residues
that send a lattice element with coordinates (a0; a1, a2, a3) to the tuple
(a0, A, B, a3) through an invertible column operation, with A, B, a3 pinned
down modulo the shape divisors M1, M2, M3.  Multiplying the resulting choice
counts gives a fully explicit upper bound on how many lattice elements of
norm up to L can move a base point by at most delta.

Counts come from one ball walk, _ball_walk: the trace-zero projection of
the lattice is walked point by point, each slice is completed by integer
square roots, and in_ball decides every candidate.  sweep_counts walks the
coordinate box once for all norms up to l_max; enumerate_norm_ball walks one
norm inside a smaller ellipsoid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from math import gcd, inf, isqrt, sqrt

from . import coprime, intmat
from .arith import divisor_count, sqrt_ceil_of_product
from .errors import ContainmentError, SearchExhausted, TheoremViolation, UsageError
from .lattice import Lattice4, Shape, box_slice_count, norm_elements, traceless_slices
from .quat import BoxConstant, Quat, UpperHalfPoint, ZBox, apply_quat, iota_inf, u_dist

U_SLACK = 1e-9
# widening of delta in the float ball pre-filters; covers U_SLACK and the
# rounding of the float F_z Gram, so only in_ball decides membership
PREFILTER_SLACK = 1e-6
# largest weight of the norm identity in enumerate_norm_ball's walk form
WALK_LAMBDA_CAP = 32.0
# most slices one sweep_counts box may hold, about half a minute of walking
# at a few microseconds a slice; a larger delta or l_max is refused before
# the walk starts
MAX_SWEEP_SLICES = 10**7


def in_ball(alpha: Quat, z: UpperHalfPoint, delta: float) -> bool:
    """Shared ball membership test: u(z, alpha z) <= delta plus fixed slack."""
    return u_dist(z, apply_quat(alpha, z)) <= delta + U_SLACK


@dataclass(frozen=True)
class CountQuery:
    lat: Lattice4
    z: UpperHalfPoint
    delta: float
    l_max: int
    squares_only: bool = False

    def __post_init__(self):
        if not 0 < self.delta < inf or self.l_max < 1:
            raise UsageError("delta must be positive and finite, and l_max positive")
        if not self.lat.contains_one():
            raise UsageError("counting needs a lattice containing 1")


@dataclass(frozen=True)
class ProjectedTuple:
    a0: int
    a_a: int
    a_b: int
    a3: int


@dataclass(frozen=True)
class InjectionWitness:
    """Matrices and residues realizing the injective tuple map.

    Built on the split lattice (scalars plus trace-zero part), whose level is
    the modulus used for every inverse below.
    """

    lat: Lattice4
    delta_mat: tuple[tuple[int, ...], ...]
    r2: int
    r3: int
    s2: int
    s3: int
    big_r: int
    big_r_inv: int
    big_s: int
    s_prime: int
    h_mat: tuple[tuple[int, ...], ...]
    g_mat: tuple[tuple[int, ...], ...]
    shape: Shape

    @property
    def modulus(self) -> int:
        return self.shape.level

    @cached_property
    def big_r2(self) -> int:
        d = self.delta_mat
        return d[1][0] + self.r2 * d[1][1] + self.r3 * d[1][2]

    @cached_property
    def s_inv(self) -> int:
        return pow(self.big_s, -1, self.modulus)

    @cached_property
    def _residue_coeffs(self) -> tuple[int, int, int]:
        """(e2, e3a, e3b): B = A e2 mod M2 and a3 = A e3a + B e3b mod M3.

        The congruences of verify_congruences, with the products of the
        witness's constants taken once: e2 = R^-1 S', and the a3 residue
        A R^-1 d02 + S^-1 (B - A e2) k, k = d12 - R2 R^-1 d02, expands to
        A (R^-1 d02 - S^-1 k e2) + B S^-1 k.
        """
        _m1, m2, m3 = self.shape.tuple3()
        dm, r_inv = self.delta_mat, self.big_r_inv
        e2 = r_inv * self.s_prime
        k_b = self.s_inv * (dm[1][2] - self.big_r2 * r_inv * dm[0][2])
        return e2 % m2, (r_inv * dm[0][2] - k_b * e2) % m3, k_b % m3


def build_injection(lat: Lattice4, bound: int | None = None) -> InjectionWitness:
    """Construct the witness for (the split companion of) a lattice.

    The trace-zero part is put in Smith form to get a basis of the ambient
    trace-zero lattice adapted to it; the coprime solver then picks the
    residues making the required minors invertible modulo the level.
    """
    sh = lat.shape()
    m1, m2, m3 = sh.tuple3()
    split = lat.z_plus_trace_zero()
    n_mod = split.level()
    if n_mod != 2 * m1 * m2 * m3:
        raise TheoremViolation("split lattice level must be twice the shape product")
    wshape = Shape(m1, m2, m3, 2)

    b0 = [list(r) for r in lat.trace_zero_mat()]
    d, _, v = intmat.snf_with_transforms(b0)
    if (d[0][0], d[1][1], d[2][2]) != (m1, m2, m3):
        raise TheoremViolation("Smith form disagrees with shape")
    v_inv = intmat.inverse_frac(v)
    delta_mat = tuple(
        tuple(int(x) for x in row) for row in v_inv
    )
    if abs(intmat.det([list(r) for r in delta_mat])) != 1:
        raise TheoremViolation("adapted basis must be unimodular")

    dm = delta_mat
    r2, r3 = coprime.solve(
        coprime.CombinationProblem((dm[0][0], dm[0][1], dm[0][2]), n_mod, 2, bound)
    )[0]
    big_r = dm[0][0] + r2 * dm[0][1] + r3 * dm[0][2]
    big_r_inv = pow(big_r, -1, n_mod)
    big_r2 = dm[1][0] + r2 * dm[1][1] + r3 * dm[1][2]

    h_mat = (
        (1, 0, 0),
        ((-big_r2 * big_r_inv) % n_mod, 1, 0),
        (0, 0, 1),
    )
    hd = intmat.matmul([list(r) for r in h_mat], [list(r) for r in dm])
    s1, s2_, s3_ = hd[1]
    if gcd(n_mod, s1, s2_, s3_) != 1:
        raise TheoremViolation("middle row must be unimodular mod the level")

    picks = coprime.solve(coprime.CombinationProblem((s1, s2_, s3_), n_mod, 2, bound))
    chosen = None
    for tup in picks:
        if tup[0] != r2:
            chosen = tup
            break
    if chosen is None:
        raise TheoremViolation("projection property should give a distinct s2")
    s2, s3 = chosen
    big_s = s1 + s2 * s2_ + s3 * s3_
    s_prime = dm[0][0] + s2 * dm[0][1] + s3 * dm[0][2]
    g_mat = ((1, 1, 0), (r2, s2, 0), (r3, s3, 1))
    if s2 - r2 == 0:
        raise TheoremViolation("g must be invertible")

    w = InjectionWitness(
        lat=split,
        delta_mat=delta_mat,
        r2=r2,
        r3=r3,
        s2=s2,
        s3=s3,
        big_r=big_r,
        big_r_inv=big_r_inv,
        big_s=big_s,
        s_prime=s_prime,
        h_mat=h_mat,
        g_mat=g_mat,
        shape=wshape,
    )
    _check_product_pattern(w)
    return w


def _check_product_pattern(w: InjectionWitness) -> None:
    """The triple product must reduce to the upper-triangular pattern."""
    n = w.modulus
    hdg = intmat.matmul(
        intmat.matmul([list(r) for r in w.h_mat], [list(r) for r in w.delta_mat]),
        [list(r) for r in w.g_mat],
    )
    dm = w.delta_mat
    want = (
        (w.big_r, w.s_prime, dm[0][2]),
        (0, w.big_s, dm[1][2] - w.big_r2 * w.big_r_inv * dm[0][2]),
    )
    for i in range(2):
        for j in range(3):
            if (hdg[i][j] - want[i][j]) % n:
                raise TheoremViolation(f"product pattern fails at ({i},{j})")


def _int_coords(w: InjectionWitness, alpha: Quat) -> tuple[int, int, int, int]:
    """Integer frame coordinates of alpha, which must lie in the witness lattice."""
    order = w.lat.order
    d = alpha.den * order._f_den
    x0, x1, x2, x3 = alpha.num
    coords = []
    for a, b, c, e in order._f_cols:
        v, r = divmod(x0 * a + x1 * b + x2 * c + x3 * e, d)
        if r:
            raise ContainmentError("element is not in the split lattice (integer coords)")
        coords.append(v)
    if not w.lat._contains(coords, 1):
        raise ContainmentError("element is not in the witness lattice")
    return tuple(coords)


def _projected(w: InjectionWitness, alpha: Quat) -> tuple[int, int, int, int]:
    """The integers (a0, A, B, a3) of project_alpha."""
    a0, a1, a2, a3 = _int_coords(w, alpha)
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = w.g_mat
    return (a0, a1 * g00 + a2 * g10 + a3 * g20, a1 * g01 + a2 * g11 + a3 * g21,
            a1 * g02 + a2 * g12 + a3 * g22)


def project_alpha(w: InjectionWitness, alpha: Quat) -> ProjectedTuple:
    """Injective tuple (a0, A, B, a3): right-multiply the coords by g."""
    return ProjectedTuple(*_projected(w, alpha))


def verify_congruences(w: InjectionWitness, alpha: Quat) -> bool:
    """The three residue constraints every lattice element must satisfy."""
    _a0, aa, ab, a3 = _projected(w, alpha)
    m1, m2, m3 = w.shape.tuple3()
    e2, e3a, e3b = w._residue_coeffs
    return not (aa % m1 or (ab - aa * e2) % m2 or (a3 - aa * e3a - ab * e3b) % m3)


def _count_in_range(c: int, modulus: int, zero_class: bool) -> int:
    """How many integers in [-c, c] a congruence class can hit, at worst."""
    if zero_class:
        return 2 * (c // modulus) + 1
    return (2 * c) // modulus + 1


# they multiply to more than 3,000,000, so the exact search below never
# reaches past the end of this tuple
_SEARCH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _max_divisor_count(c_max: int) -> int:
    """Largest d(n) for 1 <= n <= c_max; exact up to 3,000,000, else 2*sqrt.

    Some maximiser is 2^e1 3^e2 5^e3 ... with e1 >= e2 >= ...: moving n's
    exponents onto the smallest primes in non-increasing order keeps d(n)
    and does not increase n.  The search walks exactly those products.
    """
    if c_max < 1:
        return 1
    if c_max > 3_000_000:
        return 2 * isqrt(c_max) + 1

    def best_from(n: int, d: int, i: int, e_cap: int) -> int:
        best = d
        p = _SEARCH_PRIMES[i]
        e = 0
        while e < e_cap and n * p <= c_max:
            n *= p
            e += 1
            best = max(best, best_from(n, d * (e + 1), i + 1, e))
        return best

    return best_from(1, 1, 0, c_max.bit_length())


def explicit_bound(
    w: InjectionWitness, t: BoxConstant, l_max: int, squares_only: bool = False
) -> int:
    """Product of exact choice counts for the tuple (a0, A, B, a3).

    Each factor counts the integers a congruence class can hit inside the
    coordinate box; the raw box count caps the product, since the tuple map
    can never exceed plain coordinate enumeration.
    """
    if l_max < 1:
        raise UsageError("l_max must be positive")
    m1, m2, m3 = w.shape.tuple3()
    k_a = 1 + w.r2 + w.r3
    k_b = 1 + w.s2 + w.s3
    if not squares_only:
        tl = sqrt_ceil_of_product(t.t, l_max)
        c_a0 = 2 * tl + 1
        c_aa = _count_in_range(sqrt_ceil_of_product(k_a * t.t, l_max), m1, True)
        c_ab = _count_in_range(sqrt_ceil_of_product(k_b * t.t, l_max), m2, False)
        c_a3 = _count_in_range(tl, m3, False)
        return min(c_a0 * c_aa * c_ab * c_a3, (2 * tl + 1) ** 4)
    # norms are squares l^2 with l <= l_max, so coordinates reach t * l_max
    tl = sqrt_ceil_of_product(t.t, l_max * l_max)
    c_aa = _count_in_range(sqrt_ceil_of_product(k_a * t.t, l_max * l_max), m1, True)
    c_ab = _count_in_range(sqrt_ceil_of_product(k_b * t.t, l_max * l_max), m2, False)
    c_a3 = _count_in_range(tl, m3, False)
    gram = w.lat.order.gram0
    s_abs = sum(abs(v) for row in gram for v in row)
    c_max = (s_abs * tl * tl) // 2 + 1
    tau = _max_divisor_count(c_max)
    scalars = 2 * l_max
    return scalars + min(c_aa * c_ab * c_a3, (2 * tl + 1) ** 3) * tau


def _ball_walk(lat, gram, z, delta, norms, height, form=None, h_max=None):
    """Yield (m, key, alpha) for each alpha in lat with nrd m in norms and u <= delta.

    key = (h, w0, w1, w2) is den times alpha's frame coordinates; the slices
    are traceless_slices(lat, height, form).  Each slice first takes its
    exact integer window of scalars h = j mod den with h^2 + qs in
    den^2 norms (and |h| <= h_max when given).  Only then is F = w gram w^T
    taken and the move condition 2 h^2 + F <= (4 delta + 2) den^2 m, widened
    by PREFILTER_SLACK, tested on the integers; in_ball decides the rest.
    """
    den = lat.den
    dd = den * den
    n_lo, n_hi = dd * min(norms), dd * max(norms)
    f00, f11, f22 = gram[0][0], gram[1][1], gram[2][2]
    f01, f02, f12 = 2.0 * gram[0][1], 2.0 * gram[0][2], 2.0 * gram[1][2]
    c_lo = 4.0 * (delta + PREFILTER_SLACK)
    c_hi = c_lo + 2.0
    h_cap = inf if h_max is None else h_max
    qf = lat.order.quat_from_frame
    for wv, j, qs in traceless_slices(lat, height, form):
        top = n_hi - qs
        if top < 0:
            continue
        h_hi = isqrt(top)
        if h_hi > h_cap:
            h_hi = h_cap
        bottom = n_lo - qs
        if bottom > h_hi * h_hi:
            continue
        w0, w1, w2 = wv
        f_scaled = f00 * w0 * w0 + f11 * w1 * w1 + f22 * w2 * w2 + (
            f01 * w0 * w1 + f02 * w0 * w2 + f12 * w1 * w2
        )
        # 2 h^2 + F <= c_hi (h^2 + qs) is the floor c_lo h^2 >= F - c_hi qs;
        # the - 2 absorbs float rounding
        floor_f = (f_scaled - c_hi * qs) / c_lo
        h_lo = 0 if floor_f <= 0 else max(0, isqrt(int(floor_f)) - 2)
        if bottom > h_lo * h_lo:
            h_lo = isqrt(bottom - 1) + 1
        if h_lo > h_hi:
            continue
        # |h| in [h_lo, h_hi], h = j mod den, on each side of 0
        for lo, hi in ((-h_hi, -h_lo), (h_lo, h_hi)) if h_lo else ((-h_hi, h_hi),):
            for h in range(lo + (j - lo) % den, hi + 1, den):
                num = h * h + qs
                if num % dd:
                    continue
                m = num // dd
                if m not in norms or 2 * h * h + f_scaled > c_hi * num:
                    continue
                key = (h, w0, w1, w2)
                alpha = qf(key, den)
                if in_ball(alpha, z, delta):
                    yield m, key, alpha


def enumerate_norm_ball(
    lat: Lattice4, m: int, z: UpperHalfPoint, delta: float, t: BoxConstant
) -> list[Quat]:
    """Exactly the lattice elements of norm m moving z by at most delta.

    The search space is the coordinate box |a_i| <= ceil(t sqrt(m)) walked
    through the lattice's Hermite form; the box constant guarantees no
    qualifying element lies outside it.  The walk is also cut to an
    ellipsoid that holds the trace-zero part v of every such element:
    u(z, alpha z) <= delta reads 2 a0^2 + F_z(v) <= c m with
    c = 4 delta + 2 (widened by PREFILTER_SLACK), and a0^2 = m - nrd(v)
    turns it into F_z(v) - 2 nrd(v) <= (c - 2) m.  For any lambda >= 0,
    the first inequality plus lambda times the second gives
    (1 + lambda) F_z(v) - 2 lambda nrd(v) <= (c + lambda (c - 2)) m,
    a positive definite form since F_z(v) >= 2 |nrd(v)|; see _walk_form.
    The elements come sorted by their frame coordinates.
    """
    if m < 1:
        raise UsageError("norm must be positive")
    height = sqrt_ceil_of_product(t.t, m)
    gram = _fz_gram(lat.order, z)
    form = _walk_form(gram, lat.order.gram0, delta, lat.den * lat.den * m)
    walk = _ball_walk(lat, gram, z, delta, range(m, m + 1), height, form, height * lat.den)
    # the keys are distinct, so sorting never compares two Quats
    return [alpha for _m, _key, alpha in sorted(walk)]


@dataclass(frozen=True)
class CountReport:
    query: CountQuery
    per_m: tuple[tuple[int, int], ...]
    total: int
    explicit_bound: int
    ratio: float
    witness: InjectionWitness
    wall_ms: float


def sweep_counts(q: CountQuery, w: InjectionWitness, t: BoxConstant) -> CountReport:
    """Count all elements of norm up to l_max (or square norms) in the ball.

    One pass over the trace-zero projection serves every norm at once: a
    slice fixes the trace-zero part, the hyperbolic condition becomes a
    two-sided window on the scalar part, and each surviving candidate is
    confirmed with the shared exact test.  The walk's box serves the largest
    norm; a counted element of norm m outside the box ceil(t sqrt(m)) that
    t certifies raises TheoremViolation.  The bound is checked against the
    split companion lattice, rescaling norms by 4 when the query lattice is
    strictly larger (doubling embeds it into the companion).
    """
    t0 = time.perf_counter()
    shape = q.lat.shape()
    if w.shape.tuple3() != shape.tuple3():
        raise UsageError("witness shape does not match the query lattice")
    split_query = shape.e == 2
    if split_query and q.lat != w.lat:
        raise UsageError("witness must be built on the query lattice")
    max_norm = q.l_max * q.l_max if q.squares_only else q.l_max
    try:
        height = sqrt_ceil_of_product(t.t, max_norm)
        too_big = box_slice_count(q.lat, height) > MAX_SWEEP_SLICES
    except OverflowError:  # t sqrt(max_norm) is past the float range
        too_big = True
    if too_big:
        raise UsageError(
            f"the sweep's box holds more than {MAX_SWEEP_SLICES:,} slices; lower delta or l_max"
        )
    norms = ({ell * ell for ell in range(1, q.l_max + 1)} if q.squares_only
             else range(1, max_norm + 1))
    counts: dict[int, int] = {}
    gram = _fz_gram(q.lat.order, q.z)
    for m, key, alpha in _ball_walk(q.lat, gram, q.z, q.delta, norms, height):
        hm = sqrt_ceil_of_product(t.t, m) * q.lat.den
        if any(abs(c) > hm for c in key):
            raise TheoremViolation(
                f"{alpha} of norm {m} moves z = ({q.z.x!r}, {q.z.y!r}) by at "
                f"most delta = {q.delta!r} but lies outside the box of t = {t.t!r}"
            )
        counts[m] = counts.get(m, 0) + 1
    total = sum(counts.values())
    if split_query:
        bound = explicit_bound(w, t, q.l_max, q.squares_only)
    else:
        dilated = 2 * q.l_max if q.squares_only else 4 * q.l_max
        bound = explicit_bound(w, t, dilated, q.squares_only)
    if total > bound:
        raise TheoremViolation(f"count {total} exceeds explicit bound {bound}")
    wall = (time.perf_counter() - t0) * 1000.0
    return CountReport(
        query=q,
        per_m=tuple(sorted(counts.items())),
        total=total,
        explicit_bound=bound,
        ratio=total / bound,
        witness=w,
        wall_ms=wall,
    )


def square_norm_factor_check(alpha: Quat, ell: int):
    """Exact factorization identity for square norms.

    For nrd(alpha) = ell^2 the scalar part a0 satisfies
    (a0 - ell)(a0 + ell) = -nrd(alpha0) with alpha0 the trace-zero part.
    When alpha0 = 0 (forced whenever its norm vanishes, by anisotropy)
    alpha is the integer scalar a0 = +-ell.  Returns (lhs, rhs, is_scalar).
    """
    if ell < 0:
        raise UsageError("ell must be non-negative")
    if alpha.nrd() != ell * ell:
        raise UsageError("alpha must have norm ell^2")
    a0, a1, a2, a3 = alpha.coords()
    alpha0 = alpha.alg.quat(0, a1, a2, a3)
    lhs = (a0 - ell) * (a0 + ell)
    rhs = -alpha0.nrd()
    if lhs != rhs:
        raise TheoremViolation("square norm factorization identity failed")
    is_scalar = alpha0.is_zero()
    if rhs == 0:
        if not is_scalar:
            raise TheoremViolation("norm-zero trace-zero part must vanish")
        if a0 != ell and a0 != -ell:
            raise TheoremViolation("scalar of square norm must be +-ell")
    return lhs, rhs, is_scalar


@dataclass(frozen=True)
class SmallNormReport:
    level: int
    modulus: int
    t_prime: float
    m_star: int
    m_star_certified: int
    per_m: tuple[tuple[int, int], ...]
    pair_count: int
    warnings: tuple[str, ...]


def order_small_norm_check(
    order_lat: Lattice4,
    z: UpperHalfPoint,
    delta: float,
    t: BoxConstant,
    m_cap: int,
    count_factor: int = 8,
) -> SmallNormReport:
    """Certify the small-norm structure of an order around a point.

    Elements of norm m that barely move z generate, for m below a threshold
    m_star, a commutative subring: the trace-zero parts of any alpha, beta
    and their product span a sublattice whose 3x3 determinant is divisible
    by the shape product, while a Hadamard bound keeps it below that modulus,
    forcing determinant zero and hence (by anisotropy of the norm form on
    trace-zero elements of a division algebra) commutation.

    Every pair is checked exactly: the divisibility always, and commutation
    whenever the determinant is small enough for the argument to bite, no
    matter whether m is below the a priori threshold.  Counts above
    count_factor * d(m) are reported as warnings, not failures.
    """
    if not order_lat.is_order():
        raise UsageError("small norm check needs an order")
    if abs(t.delta - delta) > 1e-12:
        raise UsageError("box constant was calibrated for a different delta")
    if m_cap < 1:
        raise UsageError("m_cap must be positive")
    sh = order_lat.shape()
    modulus = sh.m1 * sh.m2 * sh.m3
    level = sh.level
    t_prime = 2.0 * t.t * sqrt(1.0 + delta)
    # |det| <= 24 sqrt(3) t^2 t' m^2 for pairs of norm <= m and their product
    had = 24.0 * sqrt(3.0) * t.t * t.t * t_prime
    m_star = isqrt(max(0, int(modulus / had)))
    while m_star > 0 and had * m_star * m_star >= modulus * (1.0 - 1e-9):
        m_star -= 1
    m_eff = min(max(m_cap, m_star), 10_000)

    pool: list[tuple[int, Quat]] = []
    per_m = []
    warnings = []
    for m in range(1, m_eff + 1):
        els = enumerate_norm_ball(order_lat, m, z, delta, t)
        per_m.append((m, len(els)))
        if len(els) > count_factor * divisor_count(m):
            warnings.append(
                f"norm {m}: {len(els)} elements exceeds {count_factor}*d({m})"
            )
        pool.extend((m, a) for a in els)

    worst_uncertified = m_eff + 1
    pair_count = 0
    for i in range(len(pool)):
        m_i, a = pool[i]
        for j in range(i + 1, len(pool)):
            m_j, b = pool[j]
            pair_count += 1
            d_val = _pair_det(a, b)
            if d_val % modulus:
                raise TheoremViolation("shape product must divide the pair determinant")
            commute = a * b == b * a
            if d_val == 0 and not commute:
                raise TheoremViolation("zero determinant must force commutation")
            if d_val != 0:
                worst_uncertified = min(worst_uncertified, max(m_i, m_j))
    m_cert = min(worst_uncertified - 1, m_eff)
    if m_cert < m_star:
        raise TheoremViolation("a priori threshold exceeded certified range")
    return SmallNormReport(
        level=level,
        modulus=modulus,
        t_prime=t_prime,
        m_star=m_star,
        m_star_certified=m_cert,
        per_m=tuple(per_m),
        pair_count=pair_count,
        warnings=tuple(warnings),
    )


def _pair_det(a: Quat, b: Quat) -> int:
    """det of the doubled trace-zero parts of (a, b, ab), exactly."""
    rows = []
    for q in (a, b, a * b):
        doubled = [2 * q.num[k] for k in (1, 2, 3)]
        if any(v % q.den for v in doubled):
            raise TheoremViolation("doubled trace-zero parts must be integral")
        rows.append([v // q.den for v in doubled])
    return intmat.det(rows)


def reduce_into_box(z: UpperHalfPoint, box: ZBox, mo, height_cap: int = 64):
    """Move z into the box by a norm-1 unit of the maximal order.

    Searches units by doubling coordinate height and returns (z', gamma)
    for the first unit (in deterministic coordinate order) that lands z in
    the box.  Raises SearchExhausted at the height cap; the unit group is
    cocompact, so a cap adequate for the box always exists but may need to
    grow with the box.
    """
    if box.contains(z):
        return z, mo.alg.one()
    seen = set()
    h = 1
    while h <= height_cap:
        for gamma in norm_elements(mo.lattice, 1, h):
            if gamma in seen:
                continue
            seen.add(gamma)
            w = apply_quat(gamma, z)
            cand = UpperHalfPoint(w.real, w.imag)
            if box.contains(cand):
                return cand, gamma
        h *= 2
    raise SearchExhausted(f"no unit moved the point into the box at height {height_cap}")


def _fz_gram(order, z: UpperHalfPoint) -> list[list[float]]:
    """Float Gram of F_z(v) = |g_z^-1 iota(v) g_z|^2 on the trace-zero frame.

    F_z is positive definite; for den-scaled coordinates w of v = w / den,
    w G w^T = den^2 * F_z(v).
    """
    g = []
    for v in order.i_basis:
        (a, b), (c, d) = _iota_conj(v, z.x, z.y)
        g.append((a, b, c, d))
    return [[u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3 for v0, v1, v2, v3 in g]
            for u0, u1, u2, u3 in g]


def _walk_form(gram, gram0, delta: float, scale: int):
    """(G, c scale): with scale = den^2 m, w G w^T <= c scale holds every norm-m ball candidate.

    G = (1 + lambda) gram - lambda gram0 and c = c_hi + lambda (c_hi - 2),
    where gram is the F_z Gram, w gram0 w^T = 2 den^2 nrd(v) and c_hi =
    4 (delta + PREFILTER_SLACK) + 2.  Every lambda >= 0 is sound; lambda =
    1/2 + 1/delta gives the smallest volume, and WALK_LAMBDA_CAP keeps the
    completed squares well conditioned at small delta, where G nears the
    degenerate gram - gram0.
    """
    c_hi = 4.0 * (delta + PREFILTER_SLACK) + 2.0
    lam = min(0.5 + 1.0 / delta, WALK_LAMBDA_CAP)
    g = [[(1.0 + lam) * f - lam * s for f, s in zip(frow, srow)]
         for frow, srow in zip(gram, gram0)]
    return g, (c_hi + lam * (c_hi - 2.0)) * scale


def _iota_conj(v: Quat, x: float, y: float):
    """Embed v and conjugate by the matrix sending i to x + iy.

    With g = [[s, x/s], [0, 1/s]], s = sqrt(y), the conjugate g^-1 M g of
    M = [[a, b], [c, d]] works out entrywise to the expressions below.
    """
    (a, b), (c, d) = iota_inf(v)
    e11 = a - x * c
    e12 = (x * (a - d) + b - x * x * c) / y
    e21 = c * y
    e22 = x * c + d
    return ((e11, e12), (e21, e22))
