"""Exact normal forms for small integer matrices.

Row convention throughout: a matrix is a list of rows, and lattices act by
integer row combinations, so the Hermite form is produced by left-unimodular
row operations and is upper triangular with positive pivots and reduced
entries above each pivot.  The Smith form keeps both transformation matrices
because downstream code consumes the right transform as a change of basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

IntMat = list[list[int]]


def identity(n: int) -> IntMat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    assert len(A[0]) == k
    return [
        [sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)
    ]


def det(A) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    Bareiss: after step k every entry below row k is a (k+1)-minor of A, so
    each division by the previous pivot is exact.  A zero pivot is swapped
    with a lower row that is nonzero in its column, flipping the sign; if
    there is none, the determinant is 0.
    """
    M = [list(row) for row in A]
    n = len(M)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            i = next((i for i in range(k + 1, n) if M[i][k]), None)
            if i is None:
                return 0
            M[k], M[i] = M[i], M[k]
            sign = -sign
        rk = M[k]
        pk = rk[k]
        for ri in M[k + 1:]:
            b = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - b * rk[j]) // prev
        prev = pk
    return sign * M[-1][-1]


def hnf(rows) -> IntMat:
    """Canonical row Hermite normal form; returns only the nonzero rows.

    One pass per column: the first row with a nonzero entry becomes the pivot
    row, and each lower row with a nonzero entry b under the pivot a is
    combined with it by the unimodular Bezout step [[x, y], [-b/g, a/g]],
    where g = gcd(a, b) = a x + b y, which leaves g in the pivot and 0 below.
    Pivots are positive, entries above each pivot lie in [0, pivot), and two
    integer row spans are equal exactly when their forms coincide.
    """
    A = [[int(v) for v in row] for row in rows]
    if not A:
        return []
    m, n = len(A), len(A[0])
    r = 0
    for j in range(n):
        if r == m:
            break
        i0 = next((i for i in range(r, m) if A[i][j]), None)
        if i0 is None:
            continue
        A[r], A[i0] = A[i0], A[r]
        for i in range(i0 + 1, m):
            b = A[i][j]
            if b:
                a = A[r][j]
                g = gcd(a, b)
                x = pow(a // g, -1, abs(b) // g)
                y = (g - a * x) // b
                ag, bg, ar, ai = a // g, b // g, A[r], A[i]
                A[r] = [x * u + y * v for u, v in zip(ar, ai)]
                A[i] = [ag * v - bg * u for u, v in zip(ar, ai)]
        if A[r][j] < 0:
            A[r] = [-v for v in A[r]]
        piv = A[r]
        for i in range(r):
            q = A[i][j] // piv[j]
            if q:
                A[i] = [u - q * v for u, v in zip(A[i], piv)]
        r += 1
    return A[:r]


def snf_with_transforms(A) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form by elementary operations, transforms retained.

    Returns (D, U, V) with U @ A @ V == D, U and V unimodular, D diagonal
    with each diagonal entry nonnegative and dividing the next.
    """
    D = [[int(v) for v in row] for row in A]
    m, n = len(D), len(D[0])
    U = identity(m)
    V = identity(n)

    def add_row(dst, src, k):
        D[dst] = [a + k * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + k * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, k):
        for row in D:
            row[dst] += k * row[src]
        for row in V:
            row[dst] += k * row[src]

    for t in range(min(m, n)):
        while True:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if D[i][j] and (
                        best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])
                    ):
                        best = (i, j)
            if best is None:
                break
            i0, j0 = best
            if i0 != t:
                D[t], D[i0] = D[i0], D[t]
                U[t], U[i0] = U[i0], U[t]
            if j0 != t:
                for row in D:
                    row[t], row[j0] = row[j0], row[t]
                for row in V:
                    row[t], row[j0] = row[j0], row[t]
            dirty = False
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
                    dirty = dirty or D[i][t] != 0
            for j in range(t + 1, n):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
                    dirty = dirty or D[t][j] != 0
            if dirty:
                continue
            piv = D[t][t]
            offender = None
            for i in range(t + 1, m):
                if any(D[i][j] % piv for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if D[t][t] < 0:
            D[t] = [-v for v in D[t]]
            U[t] = [-v for v in U[t]]
    return D, U, V


def adjugate(A) -> IntMat:
    """Integer adjugate of a nonsingular square matrix: A @ adj(A) == det(A) * I.

    Fraction-free Gauss-Jordan (Bareiss) on [A | I]: every entry stays a
    minor of the augmented matrix, so each division by the previous pivot is
    exact.  A row swap also negates one row, which keeps the determinant, so
    the right block ends as det(A) * A^-1.  A singular A raises ZeroDivisionError.
    """
    n = len(A)
    M = [[int(v) for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    prev = 1
    for k in range(n):
        if not M[k][k]:
            i = next((i for i in range(k + 1, n) if M[i][k]), None)
            if i is None:
                raise ZeroDivisionError("singular matrix")
            M[k], M[i] = M[i], [-v for v in M[k]]
        rk = M[k]
        pk = rk[k]
        for i, ri in enumerate(M):
            if i != k:
                b = ri[k]
                M[i] = [(v * pk - b * u) // prev for v, u in zip(ri, rk)]
        prev = pk
    return [row[n:] for row in M]


def inverse_frac(A) -> list[list[Fraction]]:
    """Exact inverse of a square int or Fraction matrix: adj(den A) / (det(den A) / den)."""
    rows = [[Fraction(v) for v in row] for row in A]
    den = lcm(*(v.denominator for row in rows for v in row))
    adj = adjugate([[v * den for v in row] for row in rows])
    d = sum(a * row[0] for a, row in zip(rows[0], adj))  # det(den * A) / den
    return [[v / d for v in row] for row in adj]


def solve_left_frac(H, vec) -> list[Fraction]:
    """Solve c * H = vec for upper-triangular H with nonzero diagonal."""
    n = len(H)
    c = [Fraction(0)] * n
    for j in range(n):
        s = Fraction(vec[j]) - sum(c[i] * H[i][j] for i in range(j))
        c[j] = s / H[j][j]
    return c
