"""Independent reference computations used to pin expected values.

Everything here is deliberately naive or delegated to sympy, so the package
under test never checks itself against its own machinery.
"""

import math
import random
from fractions import Fraction
from math import gcd, isqrt, lcm

from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from quatlat import Lattice4, QuatAlg, UpperHalfPoint, ZBox
from quatlat.quat import BoxConstant


def sympy_snf_diag(rows) -> list[int]:
    """Diagonal invariant factors via sympy, normalized nonnegative."""
    m = smith_normal_form(Matrix([[int(v) for v in r] for r in rows]))
    n = min(m.rows, m.cols)
    return [abs(int(m[i, i])) for i in range(n)]


def sympy_row_hnf(rows) -> list[list[int]]:
    """Row Hermite form (pivots top left, nonzero rows only) via sympy.

    sympy's form (Cohen, Algorithm 2.4.5) spans columns and puts its pivots
    at the bottom right, so it is applied to the transpose with the
    coordinates reversed, and its columns are read back in reverse.
    """
    m, n = len(rows), len(rows[0])
    a = Matrix([[int(rows[i][j]) for i in range(m)] for j in reversed(range(n))])
    w = hermite_normal_form(a)
    r = w.cols
    return [[int(w[n - 1 - j, r - 1 - i]) for j in range(n)] for i in range(r)]


def row_span_equal(a_rows, b_rows) -> bool:
    """Same integer row span: equal sympy Hermite forms.

    The Hermite form of a generating set is that of its span whatever the
    number of rows, so redundant generators need no pre-reduction.
    """
    return sympy_row_hnf(a_rows) == sympy_row_hnf(b_rows)


def naive_det(rows) -> int:
    return int(Matrix([[int(v) for v in r] for r in rows]).det())


def is_unimodular(rows) -> bool:
    return naive_det(rows) in (1, -1)


def naive_trace_zero_norm(mo, w) -> int:
    """nrd(w0 i1 + w1 i2 + w2 i3) for the frame's trace-zero basis, in Fractions.

    That is den^2 times the reduced norm of the trace-zero element whose
    den-scaled frame coordinates are w.
    """
    a, b = mo.alg.p, mo.alg.q
    x = [sum(wk * Fraction(v[i]) for wk, v in zip(w, mo.basis[1:])) for i in range(4)]
    n = x[0] ** 2 - a * x[1] ** 2 - b * x[2] ** 2 + a * b * x[3] ** 2
    assert n.denominator == 1
    return int(n)


def naive_norm_elements(lat: Lattice4, m: int, height: int):
    """Brute force over the full scaled coordinate box; no slicing tricks.

    Returns sorted frame coordinate tuples, the same filter convention as
    the package (every scaled coordinate at most height * den in absolute
    value, reduced norm exactly m).
    """
    return naive_norm_table(lat, height).get(m, [])


def naive_norm_table(lat: Lattice4, height: int) -> dict:
    """naive_norm_elements for every reduced norm at once: norm -> sorted list.

    One pass over the full scaled coordinate box, testing each integer point
    for membership before building its element.
    """
    den = lat.den
    bound = height * den
    quat = lat.order.quat_from_frame
    out = {}
    rng = range(-bound, bound + 1)
    for h in rng:
        for w1 in rng:
            for w2 in rng:
                for w3 in rng:
                    num = (h, w1, w2, w3)
                    if lat._contains(num, den):
                        coords = tuple(Fraction(v, den) for v in num)
                        out.setdefault(quat(num, den).nrd(), []).append(coords)
    for elements in out.values():
        elements.sort()
    return out


def naive_quat_mul(a: int, b: int, x, y) -> tuple:
    """Product of (1, I, J, IJ) coordinate tuples in the algebra I^2 = a, J^2 = b."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def naive_left_ideal_gens(a: int, b: int, basis, gamma, n: int) -> list:
    """Generators {b_i gamma} and {n b_i} of O gamma + nO, as Fraction rows.

    basis and gamma are (1, I, J, IJ) coordinates of a basis of O and of
    gamma; the products are taken with naive_quat_mul.
    """
    return [list(naive_quat_mul(a, b, bi, gamma)) for bi in basis] + [
        [n * v for v in bi] for bi in basis
    ]


def _over_one_den(rows):
    """Integer rows and their least positive common denominator, gcd divided out."""
    d = lcm(*(Fraction(v).denominator for row in rows for v in row))
    ints = [[int(Fraction(v) * d) for v in row] for row in rows]
    g = gcd(d, *(v for row in ints for v in row))
    return [[v // g for v in row] for row in ints], d // g


def _frac_inverse(rows) -> list[list[Fraction]]:
    inv = Matrix([[Fraction(v) for v in row] for row in rows]).inv()
    return [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(4)] for i in range(4)]


def naive_frame(a: int, b: int, gens) -> dict:
    """The frame a maximal order fixes, from rational (1, I, J, IJ) generators.

    On Fractions and sympy only, in the algebra I^2 = a, J^2 = b: the
    canonical (Hermite form, denominator) pair of the span, the frame basis
    (1, i1, i2, i3) made of 1 and the form's last three rows, its inverse
    from sympy, that inverse's integer columns over one denominator, the
    Gram trd(x conj(y)) of i1, i2, i3, and the order's canonical pair in
    frame coordinates.
    """
    ints, den = _over_one_den(gens)
    mat = sympy_row_hnf(ints)
    assert len(mat) == 4 and all(row[0] == 0 for row in mat[1:])
    basis = [[Fraction(int(k == 0)) for k in range(4)]]
    basis += [[Fraction(v, den) for v in row] for row in mat[1:]]
    inv = _frac_inverse(basis)
    f_den = lcm(*(v.denominator for row in inv for v in row))
    f_cols = [[int(inv[i][j] * f_den) for i in range(4)] for j in range(4)]

    def trd_conj(x, y):
        return 2 * naive_quat_mul(a, b, x, (y[0], -y[1], -y[2], -y[3]))[0]

    gram0 = [[trd_conj(x, y) for y in basis[1:]] for x in basis[1:]]
    frame = [[sum(Fraction(row[i], den) * inv[i][j] for i in range(4)) for j in range(4)]
             for row in mat]
    f_ints, f_d = _over_one_den(frame)
    return {
        "basis": basis,
        "from_ijk": inv,
        "f_cols": f_cols,
        "f_den": f_den,
        "gram0": gram0,
        "frame_hnf": (sympy_row_hnf(f_ints), f_d),
    }


def naive_is_order(lat: Lattice4) -> bool:
    """1 in lat and lat closed under products, on Fraction coordinates.

    The basis comes to (1, I, J, IJ) coordinates through the order's basis
    rows, products are naive_quat_mul, and membership is an integral
    solution of the sympy-inverted basis matrix.
    """
    order = lat.order
    a, b = order.alg.p, order.alg.q
    basis = [[sum(Fraction(row[i], lat.den) * order.basis[i][j] for i in range(4))
              for j in range(4)] for row in lat.mat]
    inv = _frac_inverse(basis)

    def contains(x):
        return all(sum(x[i] * inv[i][j] for i in range(4)).denominator == 1 for j in range(4))

    one = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    return contains(one) and all(contains(naive_quat_mul(a, b, x, y)) for x in basis for y in basis)


def eval_combo(combo, sample) -> Fraction:
    """Spectral value of a Hecke combination at a Satake sample.

    Only valid for real coefficient combos; the convolution identities are
    checked through this functional because eigenvalues multiply exactly.
    """
    total = Fraction(0)
    for l, c in combo.coeffs:
        assert c.is_real()
        total += c.re * sample.lam(l)
    return total


def naive_coprime_tuples(a, big_n, bound, count):
    """First `count` tuples (r1..rn) by lexicographic order with
    gcd(a0 + sum ai * ri, N) = 1 and 0 <= ri < bound."""
    n = len(a) - 1
    out = []

    def rec(prefix, acc):
        if len(out) >= count:
            return
        if len(prefix) == n:
            if gcd(acc, big_n) == 1:
                out.append(tuple(prefix))
            return
        coef = a[len(prefix) + 1]
        for r in range(bound):
            rec(prefix + [r], acc + coef * r)
            if len(out) >= count:
                return

    rec([], a[0])
    return out


def naive_sieve_count(a0, a1, big_q, x) -> int:
    return sum(1 for n in range(1, x + 1) if gcd(a0 + a1 * n, big_q) == 1)


def naive_divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def naive_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def naive_mobius(n: int) -> int:
    """Squarefree sign by trial division."""
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        else:
            d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def conic_has_small_point(a: int, b: int, height: int = 12):
    """Search a nonzero rational point on z^2 = a x^2 + b y^2."""
    for x in range(0, height + 1):
        for y in range(0, height + 1):
            if x == 0 and y == 0:
                continue
            s = a * x * x + b * y * y
            if s < 0:
                continue
            z = isqrt(s)
            if z * z == s:
                return (x, y, z)
    return None


def sample_moved_unit(rng: random.Random, delta: float, box: ZBox, alg: QuatAlg):
    """One random norm-1 direction moving a random box point by at most delta.

    Returns (z, coords) where coords are the exact-real (1, I, J, IJ)
    coordinates of a reduced-norm-1 element gamma with u(z, gamma z) <= delta.
    Used by the falsification sweep that tests box_constant empirically.
    """
    x = rng.uniform(box.x_min, box.x_max)
    y = rng.uniform(box.y_min, box.y_max)
    while True:
        s = rng.uniform(-2, 2) * math.sqrt(delta)
        t = rng.uniform(-2, 2) * math.sqrt(delta)
        if s * s + t * t <= 4 * delta:
            break
    psi = rng.uniform(0.0, 2.0 * math.pi)
    rho = math.sqrt(4.0 + s * s + t * t)
    w = rho * math.cos(psi)
    v = rho * math.sin(psi)
    al = (w + s) / 2
    be = (t + v) / 2
    ga = (t - v) / 2
    de = (w - s) / 2
    # conjugate by g_z = [[sqrt(y), x/sqrt(y)], [0, 1/sqrt(y)]]
    A = al + x * ga / y
    B = y * be - x * al + x * de - x * x * ga / y
    C = ga / y
    D = de - x * ga / y
    sp = math.sqrt(alg.p)
    q = alg.q
    coords = (
        (A + D) / 2,
        (A - D) / (2 * sp),
        (B / q + C) / 2,
        (B / q - C) / (2 * sp),
    )
    return UpperHalfPoint(x, y), coords


def falsify_box_constant(
    bc: BoxConstant,
    box: ZBox,
    alg: QuatAlg,
    samples: int,
    seed: int = 0,
    frame_inv=None,
):
    """Randomized falsification sweep for a claimed box constant.

    Returns (max_ratio, witness) where witness is None when no sampled
    direction breaks the bound; max_ratio is the largest observed
    max|coord| / t over the sweep.
    """
    rng = random.Random(seed)
    worst = 0.0
    witness = None
    conv = None
    if frame_inv is not None:
        conv = [[float(frame_inv[j][k]) for k in range(4)] for j in range(4)]
    for _ in range(samples):
        z, coords = sample_moved_unit(rng, bc.delta, box, alg)
        if conv is None:
            m = max(abs(c) for c in coords)
        else:
            m = max(
                abs(sum(coords[j] * conv[j][k] for j in range(4))) for k in range(4)
            )
        ratio = m / bc.t
        if ratio > worst:
            worst = ratio
            if ratio > 1.0:
                witness = (z, coords)
    return worst, witness
