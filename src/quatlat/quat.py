"""Indefinite rational quaternion algebras with exact coordinate arithmetic.

An algebra is generated over Q by I, J with I*I = p > 0, J*J = q < 0 and
IJ = -JI.  Elements carry exact coordinates with respect to the basis
(1, I, J, IJ), as integer numerators over one denominator; Fractions appear
only at the API boundary, and floating point only at the geometry boundary
(the 2x2 real embedding and the point-pair invariant on the upper half
plane).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .arith import factorize, is_squarefree
from .errors import TheoremViolation, UsageError

Rat = int | Fraction


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a: int, b: int, ell: int) -> int:
    """Hilbert symbol (a, b) at the finite prime ell (ell = 2 included).

    Returns +1 when x^2 = a*y^2 + b*z^2 has a nontrivial solution over the
    ell-adic numbers and -1 otherwise.
    """
    if a == 0 or b == 0:
        raise UsageError("hilbert_symbol needs nonzero arguments")
    alpha = 0
    while a % ell == 0:
        a //= ell
        alpha += 1
    beta = 0
    while b % ell == 0:
        b //= ell
        beta += 1
    if ell == 2:
        eps_a = ((a - 1) // 2) % 2
        eps_b = ((b - 1) // 2) % 2
        om_a = ((a * a - 1) // 8) % 2
        om_b = ((b * b - 1) // 8) % 2
        exp = eps_a * eps_b + alpha * om_b + beta * om_a
        return -1 if exp % 2 else 1
    sign = 1
    if (alpha * beta) % 2 and (ell - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= _legendre(a, ell)
    if alpha % 2:
        sign *= _legendre(b, ell)
    return sign


@dataclass(frozen=True)
class QuatAlg:
    """The quaternion algebra (p, q) over Q with p > 0 > q, both squarefree.

    The constructor computes the finite ramified primes and rejects split
    algebras (empty ramification), so every instance is a division algebra.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0 or self.q >= 0:
            raise UsageError("need p > 0 and q < 0")
        if not is_squarefree(self.p) or not is_squarefree(-self.q):
            raise UsageError("p and q must be squarefree")
        ram = self.ramified_set()
        if len(ram) % 2 != 0:
            raise TheoremViolation(
                f"odd finite ramification {sorted(ram)} for split infinite place"
            )
        if not ram:
            raise UsageError(f"({self.p},{self.q}) is a matrix algebra, not division")

    @cached_property
    def _ramified(self) -> frozenset[int]:
        cand = set(factorize(2 * self.p * -self.q))
        return frozenset(
            ell for ell in cand if hilbert_symbol(self.p, self.q, ell) == -1
        )

    def ramified_set(self) -> frozenset[int]:
        """Finite primes where the algebra ramifies (computed once per instance).

        Only primes dividing 2pq can ramify, so the scan is finite.
        """
        return self._ramified

    @cached_property
    def discriminant(self) -> int:
        return math.prod(self._ramified)

    def quat(self, a: Rat, b: Rat = 0, c: Rat = 0, d: Rat = 0) -> "Quat":
        num, den = over_one_den((a, b, c, d))
        return Quat(self, num, den)

    def one(self) -> "Quat":
        return self.quat(1)


def over_one_den(values) -> tuple[tuple[int, ...], int]:
    """Integer numerators over their least common positive denominator."""
    if all(type(v) is int for v in values):
        return tuple(values), 1
    fr = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in fr))
    return tuple(v.numerator * (den // v.denominator) for v in fr), den


def norm_num(n, p: int, q: int) -> int:
    """Reduced norm of the (1, I, J, IJ) coordinate tuple n, in integers."""
    a, b, c, d = n
    return a * a - p * b * b - q * c * c + p * q * d * d


def mul_num(x, y, p: int, q: int) -> tuple[int, int, int, int]:
    """Product of two (1, I, J, IJ) coordinate tuples in the algebra (p, q)."""
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (
        a0 * b0 + p * a1 * b1 + q * a2 * b2 - p * q * a3 * b3,
        a0 * b1 + a1 * b0 - q * a2 * b3 + q * a3 * b2,
        a0 * b2 + a2 * b0 + p * a1 * b3 - p * a3 * b1,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


class Quat:
    """Element (n0 + n1*I + n2*J + n3*IJ) / den of a fixed QuatAlg.

    num holds four integers over one positive denominator den, reduced so
    that gcd(num, den) = 1; equal elements therefore have equal fields.  All
    arithmetic stays in integers, and coords() gives Fractions at the API
    boundary.  Instances are treated as immutable.
    """

    __slots__ = ("alg", "num", "den")

    def __init__(self, alg: QuatAlg, num, den: int = 1):
        if den <= 0:
            if den == 0:
                raise UsageError("quaternion denominator must be nonzero")
            num, den = tuple(-v for v in num), -den
        g = gcd(*num, den)
        if g != 1:
            num, den = tuple(v // g for v in num), den // g
        self.alg = alg
        self.num = tuple(num)
        self.den = den

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self.den
        return tuple(Fraction(v, d) for v in self.num)

    def __eq__(self, other):
        if not isinstance(other, Quat):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.alg == other.alg

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Quat({self.alg.p}, {self.alg.q}; {self.num} / {self.den})"

    def _add(self, other: "Quat", sign: int) -> "Quat":
        self._same_parent(other)
        d, e = self.den, other.den
        return Quat(
            self.alg, tuple(x * e + sign * y * d for x, y in zip(self.num, other.num)), d * e
        )

    def __add__(self, other: "Quat") -> "Quat":
        return self._add(other, 1)

    def __sub__(self, other: "Quat") -> "Quat":
        return self._add(other, -1)

    def __neg__(self) -> "Quat":
        return Quat(self.alg, tuple(-v for v in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            num = tuple(v * f.numerator for v in self.num)
            return Quat(self.alg, num, self.den * f.denominator)
        self._same_parent(other)
        alg = self.alg
        return Quat(alg, mul_num(self.num, other.num, alg.p, alg.q), self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def conj(self) -> "Quat":
        a, b, c, d = self.num
        return Quat(self.alg, (a, -b, -c, -d), self.den)

    def nrd(self) -> Fraction:
        return Fraction(norm_num(self.num, self.alg.p, self.alg.q), self.den * self.den)

    def trd(self) -> Fraction:
        return Fraction(2 * self.num[0], self.den)

    def inverse(self) -> "Quat":
        n = norm_num(self.num, self.alg.p, self.alg.q)
        if n == 0:
            raise UsageError("zero element has no inverse")
        a, b, c, d = self.num
        e = self.den
        return Quat(self.alg, (a * e, -b * e, -c * e, -d * e), n)

    def is_zero(self) -> bool:
        return not any(self.num)

    def _same_parent(self, other: "Quat") -> None:
        if self.alg is not other.alg and self.alg != other.alg:
            raise UsageError("elements live in different algebras")


# ---------------------------------------------------------------------------
# geometry boundary: the real 2x2 embedding and the upper half plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UpperHalfPoint:
    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise UsageError("point must have positive imaginary part")

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class ZBox:
    """Compact axis-aligned box [x_min, x_max] x [y_min, y_max] in H."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min <= self.x_max and 0 < self.y_min <= self.y_max):
            raise UsageError("degenerate box")

    def contains(self, z: UpperHalfPoint) -> bool:
        return self.x_min <= z.x <= self.x_max and self.y_min <= z.y <= self.y_max


def iota_inf(alpha: Quat) -> tuple[tuple[float, float], tuple[float, float]]:
    """Fixed embedding into 2x2 real matrices.

    a + bI + cJ + dIJ maps to [[a + b*sp, cq + dq*sp], [c - d*sp, a - b*sp]]
    with sp = sqrt(p).  Determinant equals nrd and trace equals trd, up to
    float roundoff.
    """
    sp = math.sqrt(alpha.alg.p)
    q = alpha.alg.q
    den = alpha.den
    a, b, c, d = (v / den for v in alpha.num)
    return ((a + b * sp, c * q + d * q * sp), (c - d * sp, a - b * sp))


def mobius(mat, z: complex) -> complex:
    (a, b), (c, d) = mat
    return (a * z + b) / (c * z + d)


def u_dist(z1: UpperHalfPoint | complex, z2: UpperHalfPoint | complex) -> float:
    """Point-pair invariant |z1 - z2|^2 / (4 y1 y2) on the upper half plane."""
    w1 = z1.as_complex() if isinstance(z1, UpperHalfPoint) else z1
    w2 = z2.as_complex() if isinstance(z2, UpperHalfPoint) else z2
    if w1.imag <= 0 or w2.imag <= 0:
        raise UsageError("u_dist needs points in the upper half plane")
    return abs(w1 - w2) ** 2 / (4.0 * w1.imag * w2.imag)


def apply_quat(alpha: Quat, z: UpperHalfPoint | complex) -> complex:
    """Mobius action of the embedded element, valid when nrd(alpha) > 0."""
    w = z.as_complex() if isinstance(z, UpperHalfPoint) else z
    return mobius(iota_inf(alpha), w)


@dataclass(frozen=True)
class BoxConstant:
    """Certified coordinate growth constant for one (delta, box) pair.

    For every z in the box, every algebra element of positive reduced norm m
    that moves z by at most delta (in the u invariant) has all coordinates
    bounded by t * sqrt(m) in absolute value.  Larger t is always sound; it
    only widens enumeration boxes.
    """

    delta: float
    t: float


def _coord_maxima(delta: float, box: ZBox, alg: QuatAlg) -> tuple[float, float, float, float]:
    """Per-coordinate suprema over norm-1 elements moving some box point <= delta.

    Derived by conjugating to the stabilizer frame of z: an element gamma
    with u(z, gamma z) <= delta pulls back to gamma' with Frobenius norm
    squared at most 4*delta + 2, and each (1, I, J, IJ) coordinate of gamma
    is a linear functional of gamma' whose extremum over that set has a
    closed form.  Mixed x/y terms are bounded by corner evaluation of
    monotone pieces, which is conservative but certified.
    """
    X = max(abs(box.x_min), abs(box.x_max))
    ym, yM = box.y_min, box.y_max
    sd = math.sqrt(delta)
    s1 = math.sqrt(1.0 + delta)
    sp = math.sqrt(alg.p)
    aq = abs(alg.q)

    t_a = s1
    m_ad = 2 * sd * math.hypot(1.0, X / ym) + 2 * s1 * X / ym
    t_b = m_ad / (2 * sp)
    m_c_entry = (sd + s1) / ym
    corners = [(x, y) for x in (0.0, X) for y in (ym, yM)]
    g12 = max(abs(y * y - x * x) / (2 * y) for x, y in corners)
    g34 = max((y * y + x * x) / (2 * y) for x, y in corners)
    m_b_entry = 2 * sd * math.hypot(X, g12) + 2 * s1 * g34
    t_c = (m_b_entry / aq + m_c_entry) / 2
    t_d = (m_b_entry / aq + m_c_entry) / (2 * sp)
    return (t_a, t_b, t_c, t_d)


def box_constant(delta: float, box: ZBox, alg: QuatAlg, frame_inv=None) -> BoxConstant:
    """Certified box constant; see BoxConstant.

    frame_inv, when given, is a 4x4 rational matrix converting (1, I, J, IJ)
    coordinates to an integral-basis frame (rows index the IJ coordinates);
    the bound is then valid for the frame coordinates instead.
    """
    if not 0 < delta < math.inf:
        raise UsageError("delta must be positive and finite")
    per = _coord_maxima(delta, box, alg)
    if frame_inv is None:
        t = max(per)
    else:
        t = 0.0
        for k in range(4):
            t = max(t, sum(abs(float(frame_inv[j][k])) * per[j] for j in range(4)))
    return BoxConstant(delta, t * (1.0 + 1e-9))
