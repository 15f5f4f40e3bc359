"""Independent reference computations used to pin expected values.

Everything here is deliberately naive or delegated to sympy, so the package
under test never checks itself against its own machinery.
"""

from fractions import Fraction
from math import gcd, isqrt

from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from quatlat import Lattice4


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


def naive_norm_elements(lat: Lattice4, m: int, height: int):
    """Brute force over the full scaled coordinate box; no slicing tricks.

    Returns sorted frame coordinate tuples, the same filter convention as
    the package (every scaled coordinate at most height * den in absolute
    value, reduced norm exactly m).
    """
    den = lat.den
    bound = height * den
    out = []
    rng = range(-bound, bound + 1)
    for h in rng:
        for w1 in rng:
            for w2 in rng:
                for w3 in rng:
                    coords = (
                        Fraction(h, den),
                        Fraction(w1, den),
                        Fraction(w2, den),
                        Fraction(w3, den),
                    )
                    if not lat.contains_coords(coords):
                        continue
                    if lat.order.quat_from_frame(coords).nrd() == m:
                        out.append(coords)
    out.sort()
    return out


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
