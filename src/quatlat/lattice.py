"""Full lattices and orders inside an indefinite rational quaternion algebra.

A MaximalOrder fixes the coordinate frame for everything else: it selects a
trace-zero basis (i1, i2, i3) of its trace-zero part, and lattices are stored
as integer Hermite forms over a single denominator with respect to the frame
basis (1, i1, i2, i3).  The maximal order itself has denominator 2 in this
frame because the scalars plus the trace-zero part sit at index two inside
it; sublattices of Z + trace-zero part have denominator 1, which is what the
counting layer works with.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod

from . import intmat
from .arith import factorize, smallest_root_multiple
from .errors import (
    ContainmentError,
    DegenerateLatticeError,
    SearchExhausted,
    TheoremViolation,
    UsageError,
)
from .quat import Quat, QuatAlg, mul_num, norm_num, over_one_den
# the slice walks live in .walk; lattice keeps their names for its callers
from .walk import box_slice_count, norm_elements, norm_keys, traceless_slices  # noqa: F401

FracRow = tuple[Fraction, Fraction, Fraction, Fraction]


def _canonical_int(rows, den: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Canonical (integer HNF, denominator) pair for the span of rows / den.

    Dividing out the common factor first is exact: the gcd of a basis's
    entries and den does not depend on the basis.
    """
    if den < 0:
        rows, den = [[-v for v in row] for row in rows], -den
    g = gcd(den, *(v for row in rows for v in row))
    if g > 1:
        rows, den = [[v // g for v in row] for row in rows], den // g
    H = intmat.hnf(rows)
    if len(H) != 4:
        raise DegenerateLatticeError(f"rank {len(H)} span, need 4")
    return tuple(tuple(row) for row in H), den


def _canonical_rows(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Canonical (integer HNF, denominator) pair for a rational row span."""
    width = len(rows[0])
    flat, den = over_one_den([v for row in rows for v in row])
    return _canonical_int([flat[i:i + width] for i in range(0, len(flat), width)], den)


def _vecmat(v, cols) -> tuple[int, ...]:
    """Row vector v (length 4) times the matrix given by its columns."""
    v0, v1, v2, v3 = v
    return tuple(v0 * a + v1 * b + v2 * c + v3 * d for a, b, c, d in cols)


def _solve_int(mat, target, scale: int = 1):
    """Integer c with c * (scale * mat) = target, or None when there is none.

    mat is a 4x4 upper-triangular Hermite form with nonzero pivots, so the
    solve is one exact division per column; u_k = scale * c_k is carried
    so that the scale multiplies only the pivots.
    """
    (m00, m01, m02, m03), (_, m11, m12, m13), (_, _, m22, m23), (_, _, _, m33) = mat
    t0, t1, t2, t3 = target
    if t0 % (scale * m00):
        return None
    u0 = t0 // m00
    t1 -= u0 * m01
    if t1 % (scale * m11):
        return None
    u1 = t1 // m11
    t2 -= u0 * m02 + u1 * m12
    if t2 % (scale * m22):
        return None
    u2 = t2 // m22
    t3 -= u0 * m03 + u1 * m13 + u2 * m23
    if t3 % (scale * m33):
        return None
    return [u0 // scale, u1 // scale, u2 // scale, t3 // (scale * m33)]


class MaximalOrder:
    """A certified maximal order; also the coordinate frame owner.

    The frame vectors (1, i1, i2, i3) are the rows of T / den, where
    T = [[den, 0, 0, 0], mat[1], mat[2], mat[3]] is built from the order's
    canonical (1, I, J, IJ) Hermite form (mat, den): rows 2-4 of that form
    are the Hermite basis of the trace-zero part.  The constructor re-checks
    closure, unit, the discriminant certificate, the trace-zero rows, the
    even integral trace Gram, the frame denominator and the index of the
    scalars plus the trace-zero part, so a successfully built instance is
    genuinely maximal.

    The frame maps are kept as integer matrices over one denominator each:
    (1, I, J, IJ) coordinates are frame coordinates times _t_cols / _t_den,
    and frame coordinates are (1, I, J, IJ) coordinates times
    _f_cols / _f_den (both stored by columns).  basis, i_basis and
    _from_ijk are rational views of them, built on first access.
    """

    def __init__(self, alg: QuatAlg, ijk_rows: list[list[Fraction]]):
        """The maximal order spanned by rational (1, I, J, IJ) rows."""
        self._build(alg, *_canonical_rows(ijk_rows))

    @classmethod
    def _from_canonical(cls, alg: QuatAlg, mat, den: int) -> "MaximalOrder":
        """The maximal order span(mat) / den, for a canonical (mat, den) pair."""
        self = cls.__new__(cls)
        self._build(alg, mat, den)
        return self

    def _build(self, alg: QuatAlg, mat, den: int) -> None:
        self.alg = alg
        if not _raw_is_order(alg, mat, den):
            raise UsageError("basis does not span an order")
        G = _trace_gram(alg, mat)
        disc = _reduced_discriminant(G, den)
        if disc != alg.discriminant:
            raise UsageError(
                f"order has reduced discriminant {disc}, not maximal "
                f"(algebra discriminant {alg.discriminant})"
            )
        # trace-zero basis: rows 2..4 of the Hermite form have scalar part 0
        for row in mat[1:]:
            if row[0] != 0:
                raise TheoremViolation("Hermite rows 2-4 should be trace-zero")
        T = ((den, 0, 0, 0),) + tuple(mat[1:])
        self._t_cols = tuple(zip(*T))
        self._t_den = den
        # frame = ijk * den * adj(T) / det(T), reduced by one gcd; T is
        # upper triangular, so det(T) is the product of its diagonal
        adj = intmat.adjugate(T)
        t_det = prod(T[i][i] for i in range(4))
        g = gcd(t_det, *(den * v for row in adj for v in row))
        self._f_cols = tuple(tuple(den * v // g for v in col) for col in zip(*adj))
        self._f_den = t_det // g
        # integer Gram of the trace-zero frame under (x, y) -> trd(x * conj(y))
        dd = den * den
        if any(v % dd for row in G[1:] for v in row[1:]):
            raise TheoremViolation("trace pairing of integral basis not integral")
        S = tuple(tuple(v // dd for v in row[1:]) for row in G[1:])
        if any(S[k][k] % 2 for k in range(3)):
            raise TheoremViolation("trace form of an integral element must be even")
        self.gram0 = S
        frame_rows = [_vecmat(row, self._f_cols) for row in mat]
        fmat, fden = _canonical_int(frame_rows, den * self._f_den)
        self._frame_hnf = (fmat, fden)
        if fden not in (1, 2):
            raise TheoremViolation(f"maximal order has frame denominator {fden}")
        # scalars plus trace-zero part must sit at index exactly two
        k = self.lattice.z_plus_trace_zero().index_in(self.lattice)
        if k != 2:
            raise TheoremViolation(f"index of scalars + trace-zero part is {k}, not 2")

    @cached_property
    def basis(self) -> tuple[FracRow, ...]:
        """The (1, I, J, IJ) coordinates of the frame vectors (1, i1, i2, i3)."""
        den = self._t_den
        return tuple(tuple(Fraction(v, den) for v in row) for row in zip(*self._t_cols))

    @cached_property
    def i_basis(self) -> tuple[Quat, Quat, Quat]:
        """The trace-zero frame vectors i1, i2, i3 as elements."""
        rows = tuple(zip(*self._t_cols))[1:]
        return tuple(Quat(self.alg, row, self._t_den) for row in rows)

    @cached_property
    def _from_ijk(self) -> tuple[FracRow, ...]:
        """The inverse of basis: (1, I, J, IJ) coordinates times it give frame ones."""
        den = self._f_den
        return tuple(tuple(Fraction(v, den) for v in row) for row in zip(*self._f_cols))

    @property
    def discriminant(self) -> int:
        return self.alg.discriminant

    @property
    def lattice(self) -> "Lattice4":
        """The order as a Lattice4 in its own frame.

        Built on access rather than stored, so an order and its lattice form
        no reference cycle and a discarded order is freed at once.
        """
        return Lattice4(self, *self._frame_hnf)

    def quat_from_frame(self, coords, den: int = 1) -> Quat:
        """The element with frame coordinates coords / den.

        Integer coords take the integer path directly; rational ones are put
        over one denominator first.
        """
        if any(type(v) is not int for v in coords):
            coords, d = over_one_den(coords)
            den *= d
        return Quat(self.alg, _vecmat(coords, self._t_cols), den * self._t_den)

    def _frame_num(self, x: Quat) -> tuple[tuple[int, ...], int]:
        """Frame coordinates of x as integer numerators over one denominator."""
        return _vecmat(x.num, self._f_cols), x.den * self._f_den

    def frame_coords(self, x: Quat) -> FracRow:
        num, den = self._frame_num(x)
        return tuple(Fraction(v, den) for v in num)

    def lattice_from_quats(self, quats: list[Quat]) -> "Lattice4":
        den = lcm(*(q.den for q in quats))
        return self.lattice_from_ijk([[v * (den // q.den) for v in q.num] for q in quats], den)

    def lattice_from_ijk(self, rows, den: int = 1) -> "Lattice4":
        """The lattice spanned by integer (1, I, J, IJ) coordinate rows over den."""
        frame_rows = [_vecmat(row, self._f_cols) for row in rows]
        mat, den = _canonical_int(frame_rows, den * self._f_den)
        return Lattice4(self, mat, den)

    def lattice_from_frame_rows(self, rows) -> "Lattice4":
        mat, den = _canonical_rows(rows)
        return Lattice4(self, mat, den)

    def contains(self, x: Quat) -> bool:
        return self.lattice.contains_quat(x)


@dataclass(frozen=True)
class Shape:
    """Elementary divisors (m1 | m2 | m3) of the trace-zero quotient, plus e.

    e is the level divided by m1*m2*m3; it always lands in {1, 2} and equals
    2 exactly when the lattice splits as scalars plus its trace-zero part.
    """

    m1: int
    m2: int
    m3: int
    e: int

    @property
    def level(self) -> int:
        return self.m1 * self.m2 * self.m3 * self.e

    def tuple3(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)


@dataclass(frozen=True)
class InvariantFactors:
    """Invariant factors (a1 | a2 | a3 | a4) of a full sublattice, plus t1.

    t1 is the smallest positive integer whose square is divisible by the
    index a1*a2*a3*a4.
    """

    factors: tuple[int, int, int, int]
    t1: int

    @property
    def index(self) -> int:
        a = self.factors
        return a[0] * a[1] * a[2] * a[3]


@dataclass(frozen=True)
class Lattice4:
    """Full-rank lattice in frame coordinates: rows of mat over den.

    The pair (mat, den) is canonical (Hermite form, minimal denominator), so
    equality of values is equality of lattices.
    """

    order: MaximalOrder
    mat: tuple[tuple[int, ...], ...]
    den: int

    def basis_quats(self) -> list[Quat]:
        qf = self.order.quat_from_frame
        return [qf(row, self.den) for row in self.mat]

    def det_frame(self) -> Fraction:
        return Fraction(prod(self.mat[i][i] for i in range(4)), self.den**4)

    def contains_coords(self, coords) -> bool:
        return self._contains(*over_one_den(coords))

    def _contains(self, num, d: int) -> bool:
        """Whether the frame coordinates num / d (integers) lie in the lattice."""
        den = self.den
        return _solve_int(self.mat, [v * den for v in num], d) is not None

    def contains_quat(self, x: Quat) -> bool:
        return self._contains(*self.order._frame_num(x))

    def is_sublattice_of(self, other: "Lattice4") -> bool:
        return all(other._contains(row, self.den) for row in self.mat)

    def index_in(self, other: "Lattice4") -> int:
        """[other : self] for self contained in other."""
        if not self.is_sublattice_of(other):
            raise ContainmentError("not a sublattice")
        num = prod(self.mat[i][i] for i in range(4)) * other.den**4
        den = prod(other.mat[i][i] for i in range(4)) * self.den**4
        if num % den:
            raise TheoremViolation("index of a sublattice must be integral")
        return num // den

    def level(self) -> int:
        """Index in the owning maximal order."""
        return self.index_in(self.order.lattice)

    def contains_one(self) -> bool:
        return self.contains_coords((1, 0, 0, 0))

    def trace_zero_mat(self) -> tuple[tuple[int, ...], ...]:
        """3x3 integer basis of the trace-zero part in (i1, i2, i3) coords.

        Valid for sublattices of the maximal order: trace-zero elements have
        integral frame coordinates, so the denominator divides out.
        """
        rows = []
        for row in self.mat[1:]:
            if any(v % self.den for v in row[1:]):
                raise ContainmentError(
                    "trace-zero part not integral; lattice is not inside the order"
                )
            rows.append(tuple(v // self.den for v in row[1:]))
        return tuple(rows)

    def z_plus_trace_zero(self) -> "Lattice4":
        b = self.trace_zero_mat()
        rows = [(1, 0, 0, 0)] + [(0,) + r for r in b]
        return self.order.lattice_from_frame_rows(rows)

    def shape(self) -> Shape:
        return self.smith[0]

    @cached_property
    def smith(self) -> tuple[Shape, tuple[tuple[int, ...], ...]]:
        """(shape, Delta) from one Smith form U B V = D of the trace-zero basis B.

        D's diagonal is (m1 | m2 | m3).  Delta = V^-1 is the basis change that
        build_injection adapts to; det(V) = +-1, so V^-1 = det(V) adj(V).
        """
        if not self.contains_one():
            raise UsageError("shape needs a lattice containing 1")
        n = self.level()
        d, _, v = intmat.snf_with_transforms(self.trace_zero_mat())
        m1, m2, m3 = d[0][0], d[1][1], d[2][2]
        if n % (m1 * m2 * m3):
            raise TheoremViolation("level not divisible by trace-zero index")
        e = n // (m1 * m2 * m3)
        if e not in (1, 2):
            raise TheoremViolation(f"shape cofactor e = {e} outside {{1, 2}}")
        split_index = self.z_plus_trace_zero().index_in(self)
        if split_index * e != 2:
            raise TheoremViolation("split index and shape cofactor disagree")
        v_det = intmat.det(v)
        delta = tuple(tuple(v_det * x for x in row) for row in intmat.adjugate(v))
        return Shape(m1, m2, m3, e), delta

    def invariant_factors_in(self, other: "Lattice4") -> InvariantFactors:
        """Invariant factors of self inside other (self must be contained)."""
        rows = []
        for row in self.mat:
            c = _solve_int(other.mat, [v * other.den for v in row], self.den)
            if c is None:
                raise ContainmentError("not a sublattice")
            rows.append(c)
        d, _, _ = intmat.snf_with_transforms(rows)
        a = tuple(d[i][i] for i in range(4))
        return InvariantFactors(a, smallest_root_multiple(a[0] * a[1] * a[2] * a[3]))

    @cached_property
    def invariant_factors(self) -> InvariantFactors:
        """Invariant factors in the owning maximal order, computed once per lattice."""
        return self.invariant_factors_in(self.order.lattice)

    def is_balanced(self) -> bool:
        """Largest invariant factor in the maximal order divides t1."""
        f = self.invariant_factors
        return f.t1 % f.factors[3] == 0

    def is_order(self) -> bool:
        """Whether the lattice holds 1 and is closed under multiplication.

        The basis goes to (1, I, J, IJ) numerators X / e with e = den * _t_den;
        each product X Y / e^2 goes back to frame numerators over
        e^2 * _f_den and is solved against the Hermite form.  As in
        _raw_is_order, integral basis traces let the products b_i b_j with
        i <= j decide closure.
        """
        if not self.contains_one():
            return False
        order = self.order
        p, q = order.alg.p, order.alg.q
        t_cols, f_cols = order._t_cols, order._f_cols
        e = self.den * order._t_den
        d = e * e * order._f_den
        basis = [_vecmat(row, t_cols) for row in self.mat]
        if any(2 * x[0] % e for x in basis):
            return False
        return all(
            self._contains(_vecmat(mul_num(x, y, p, q), f_cols), d)
            for i, x in enumerate(basis) for y in basis[i:]
        )

    def reduced_discriminant(self):
        """Square root of |det trd(b_i conj(b_j))|; equals d * level for orders."""
        order = self.order
        rows = [_vecmat(row, order._t_cols) for row in self.mat]
        return _raw_reduced_discriminant(order.alg, rows, self.den * order._t_den)

    @cached_property
    def slice_frame(self) -> tuple[tuple[int, int, int, int], ...]:
        """The set-up of traceless_slices, computed once per lattice.

        One Hermite form of den * lat with the scalar column last (Cohen,
        GTM 138, 2.4): its rows 0-2 are the projection basis, each with its
        least scalar completion in the last column, and H[3][3] is the
        smallest positive scalar, so the scalar residue is additive along
        the basis.  Only a lattice whose scalars are exactly Z has
        H[3][3] = den; any other raises UsageError, on every access.
        """
        H = intmat.hnf([[*row[1:], row[0]] for row in self.mat])
        if H[3][3] != self.den:
            raise UsageError("slice enumeration needs a lattice whose scalars are exactly Z")
        return tuple(tuple(row) for row in H[:3])

    def _conjugate_rows(self, g: Quat) -> tuple[Iterator[tuple[int, ...]], int]:
        """Frame numerators of g b g^-1 for each basis row b, over one denominator.

        Computed as g b conj(g) / nrd(g) on integer numerators: with
        g = G / e the denominators of g cancel, leaving G b conj(G) / nrd(G),
        so the denominator is den * _t_den * _f_den * nrd(G).  The rows span
        g * self * g^-1 but are not in Hermite form; they are computed as
        they are read, so a test that stops at the first failing row skips
        the rest.
        """
        order = self.order
        alg = order.alg
        if g.alg != alg:
            raise UsageError("conjugator lives in a different algebra")
        p, q = alg.p, alg.q
        gn = g.num
        n = norm_num(gn, p, q)
        if n == 0:
            raise UsageError("conjugator must be invertible")
        gc = (gn[0], -gn[1], -gn[2], -gn[3])
        t_cols, f_cols = order._t_cols, order._f_cols
        rows = (
            _vecmat(mul_num(mul_num(gn, _vecmat(row, t_cols), p, q), gc, p, q), f_cols)
            for row in self.mat
        )
        return rows, self.den * order._t_den * order._f_den * n

    def conjugate_by(self, g: Quat) -> "Lattice4":
        """The lattice g * self * g^-1."""
        rows, d = self._conjugate_rows(g)
        return Lattice4(self.order, *_canonical_int(list(rows), d))

    def conjugate_lies_in(self, g: Quat, other: "Lattice4") -> bool:
        """Whether g * self * g^-1 is contained in other.

        The same verdict as conjugate_by(g).is_sublattice_of(other), since
        both test a basis of one span, but decided on the four conjugated
        rows without their Hermite form, and only up to the first row that
        is not in other.
        """
        rows, d = self._conjugate_rows(g)
        return all(other._contains(row, d) for row in rows)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def lattice_sum(a: Lattice4, b: Lattice4) -> Lattice4:
    rows = [[Fraction(v, a.den) for v in row] for row in a.mat]
    rows += [[Fraction(v, b.den) for v in row] for row in b.mat]
    return a.order.lattice_from_frame_rows(rows)


def lattice_product(a: Lattice4, b: Lattice4) -> Lattice4:
    """Lattice spanned by all products x*y of basis elements."""
    return a.order.lattice_from_quats(
        [x * y for x in a.basis_quats() for y in b.basis_quats()]
    )


def _dual(mat, den: int):
    """(rows, denominator) of the dual of span(mat) / den under the dot product.

    The dual basis is den * mat^-T = den * adj(mat)^T / det(mat); mat is an
    upper-triangular Hermite form, so det(mat) is the product of its diagonal.
    """
    rows = [[den * v for v in col] for col in zip(*intmat.adjugate(mat))]
    return rows, prod(mat[i][i] for i in range(4))


def intersect(a: Lattice4, b: Lattice4) -> Lattice4:
    """Lattice intersection via duality: dual of the sum of the duals."""
    if a.order is not b.order:
        raise UsageError("lattices must share a maximal order")
    (ra, da), (rb, db) = _dual(a.mat, a.den), _dual(b.mat, b.den)
    d = lcm(da, db)
    rows = [[v * (d // da) for v in r] for r in ra] + [[v * (d // db) for v in r] for r in rb]
    mat, den = _canonical_int(*_dual(*_canonical_int(rows, d)))
    return Lattice4(a.order, mat, den)


def z_plus_f_order(mo: MaximalOrder, f: int) -> Lattice4:
    """The order generated by the scalars and f times the maximal order."""
    if f < 1:
        raise UsageError("f must be a positive integer")
    rows = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]
    rows += [[Fraction(f * v, mo.lattice.den) for v in row] for row in mo.lattice.mat]
    return mo.lattice_from_frame_rows(rows)


def two_sided_prime_ideal(mo: MaximalOrder, p: int) -> Lattice4:
    """The unique two-sided ideal above a ramified prime p.

    Constructed as g * O + p * O for any order element g whose reduced norm
    has p-valuation one; at every other prime the local component is the full
    order.
    """
    if p not in mo.alg.ramified_set():
        raise UsageError(f"{p} is not ramified in the algebra")
    g = next((x for h in range(1, 6) for n in (p, -p) for x in norm_elements(mo.lattice, n, h)),
             None)
    if g is None:
        raise SearchExhausted(f"no element of reduced norm +-{p} at small height")
    basis = mo.lattice.basis_quats()
    quats = [g * b for b in basis] + [p * b for b in basis]
    ideal = mo.lattice_from_quats(quats)
    if ideal.index_in(mo.lattice) != p * p:
        raise TheoremViolation("ramified prime ideal should have index p^2")
    return ideal


def ideal_power_order(mo: MaximalOrder, p: int, k: int) -> Lattice4:
    """The order given by scalars plus the k-th power of the ramified ideal."""
    P = two_sided_prime_ideal(mo, p)
    Pk = P
    for _ in range(k - 1):
        Pk = lattice_product(Pk, P)
    rows = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]
    rows += [[Fraction(v, Pk.den) for v in row] for row in Pk.mat]
    out = mo.lattice_from_frame_rows(rows)
    if not out.is_order():
        raise TheoremViolation("scalars plus an ideal power must be an order")
    return out


def z_plus_zw_order(mo: MaximalOrder, w: Quat, f: int) -> Lattice4:
    """The lattice spanned by 1, w, and f times the maximal order.

    For trace-zero w in the order and f a prime power this cuts out the
    small commutative-plus-congruence orders used by the local tests; the
    caller is responsible for checking is_order and the level.
    """
    rows = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)]]
    rows.append([Fraction(v) for v in mo.frame_coords(w)])
    rows += [[Fraction(f * v, mo.lattice.den) for v in row] for row in mo.lattice.mat]
    return mo.lattice_from_frame_rows(rows)


def saturate_to_maximal(alg: QuatAlg, ijk_rows) -> MaximalOrder:
    """Grow an order to a maximal one by adjoining integral p-denominators.

    ijk_rows are rational (1, I, J, IJ) coordinate rows of an order basis.
    At each step the excess prime p of the reduced discriminant is attacked
    by scanning (1/p) times the current lattice for integral elements whose
    adjunction keeps multiplicative closure; each success divides the
    discriminant by p, so the loop terminates at the algebra discriminant.
    """
    mat, den = _canonical_rows(ijk_rows)
    if not _raw_is_order(alg, mat, den):
        raise UsageError("input is not an order")
    target = alg.discriminant
    while True:
        disc = _raw_reduced_discriminant(alg, mat, den)
        if disc == target:
            return MaximalOrder._from_canonical(alg, mat, den)
        excess = disc // target
        for p in factorize(excess):
            grown = _find_integral_extension(alg, mat, den, p)
            if grown is not None:
                mat, den = grown
                break
        else:
            raise TheoremViolation(
                f"discriminant {disc} exceeds {target} but no integral extension found"
            )


def default_maximal_order(alg: QuatAlg) -> MaximalOrder:
    """Maximal order grown from the obvious integral basis (1, I, J, IJ)."""
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return saturate_to_maximal(alg, rows)


def eichler_order(mo: MaximalOrder, n: int) -> tuple[Lattice4, Quat]:
    """Order of level n cut out as the intersection with a conjugate.

    Searches elements g of reduced norm n in the maximal order by increasing
    coordinate height up to 512 and returns the first whose conjugate
    intersection has level exactly n, together with g itself.
    """
    if gcd(n, mo.discriminant) != 1:
        raise UsageError("level must be coprime to the algebra discriminant")
    seen: set = set()
    h = max(2, isqrt(n) // 2)
    while h <= 512:
        for g in norm_elements(mo.lattice, n, h):
            if g in seen:
                continue
            seen.add(g)
            cand = intersect(mo.lattice, mo.lattice.conjugate_by(g.inverse()))
            if cand.level() == n:
                return cand, g
        h *= 2
    raise SearchExhausted(f"no norm-{n} conjugator below height 512")


# ---------------------------------------------------------------------------
# raw helpers on integer (1, I, J, IJ) rows over one denominator, used before
# a frame exists
# ---------------------------------------------------------------------------


def _raw_is_order(alg: QuatAlg, mat, den) -> bool:
    """Whether span(mat) / den holds 1 and is closed under multiplication.

    An order's elements are integral, so its basis traces 2 X_0 / den are
    integers.  Given those, xy + yx = trd(x) y + trd(y) x - trd(x) trd(y)
    + trd(xy) puts b_j b_i in a span holding 1 and b_i b_j, since every
    element of the span has an integral trace; so the products with i <= j
    decide closure.
    """
    if _solve_int(mat, (den, 0, 0, 0)) is None or any(2 * x[0] % den for x in mat):
        return False
    p, q = alg.p, alg.q
    # x = X / den, y = Y / den: x * y = X * Y / den^2 lies in span(mat) / den
    return all(
        _solve_int(mat, mul_num(x, y, p, q), den) is not None
        for i, x in enumerate(mat) for y in mat[i:]
    )


def _trace_gram(alg: QuatAlg, rows) -> list[list[int]]:
    """den^2 trd(x_i conj(x_j)) for the basis x_i = rows[i] / den, in integers."""
    p, q = alg.p, alg.q
    return [
        [2 * (x[0] * y[0] - p * x[1] * y[1] - q * x[2] * y[2] + p * q * x[3] * y[3]) for y in rows]
        for x in rows
    ]


def _raw_reduced_discriminant(alg: QuatAlg, rows, den):
    """Square root of |det trd(x_i conj(x_j))| for the basis rows / den."""
    return _reduced_discriminant(_trace_gram(alg, rows), den)


def _reduced_discriminant(G, den: int):
    """Square root of |det G| / den^4 for an integer trace Gram G = _trace_gram."""
    d = abs(intmat.det(G))
    r = isqrt(d)
    if r * r != d:
        raise TheoremViolation("trace form determinant is not a perfect square")
    val = Fraction(r, den**4)
    return int(val) if val.denominator == 1 else val


def _find_integral_extension(alg: QuatAlg, mat, den, p: int):
    """First (1/p)-combination that stays integral and keeps an order closed.

    Returns the canonical (mat, den) of the grown order, or None.  span(mat)
    / den is an order and x has an integral trace and norm, so x^2 =
    trd(x) x - nrd(x) and the identity of _raw_is_order put every product
    in the grown span once the four x b_i lie in it.
    """
    dp = den * p
    a, b = alg.p, alg.q
    scaled = [[v * p for v in row] for row in mat]
    cols = tuple(zip(*mat))
    for c0 in range(p):
        for c1 in range(p):
            for c2 in range(p):
                for c3 in range(p):
                    if not (c0 or c1 or c2 or c3):
                        continue
                    # x = X / (den * p), the combination of the rows over p
                    x = _vecmat((c0, c1, c2, c3), cols)
                    if (2 * x[0]) % dp or norm_num(x, a, b) % (dp * dp):
                        continue
                    if _solve_int(mat, x, p) is not None:
                        continue
                    nmat, nden = _canonical_int(scaled + [list(x)], dp)
                    # x b_i = X B_i / (dp den) lies in span(nmat) / nden
                    if all(_solve_int(nmat, [v * nden for v in mul_num(x, row, a, b)], dp * den)
                           is not None for row in mat):
                        return nmat, nden
    return None
