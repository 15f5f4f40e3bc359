import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatlat import QuatAlg, default_maximal_order, intmat

from oracles import is_unimodular, naive_det, row_span_equal, sympy_row_hnf, sympy_snf_diag

FEW = settings(max_examples=80, deadline=None)


@st.composite
def int_matrices(draw, max_rows=5, bound=9):
    """Integer matrices up to max_rows x 4; about half made rank-deficient."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, 4))
    entry = st.integers(-bound, bound)
    m = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # the last row becomes a combination of the others
        coefs = draw(st.lists(st.integers(-3, 3), min_size=rows - 1, max_size=rows - 1))
        m[-1] = [sum(c * row[j] for c, row in zip(coefs, m)) for j in range(cols)]
    return m


FIVE_BY_FOUR = [[2, 4, 6, 8], [1, 3, 5, 7], [0, 0, 0, 0], [3, 7, 11, 15], [0, 2, 4, 6]]


def rand_mat(rng, n, lo=-9, hi=9, nonsingular=True):
    while True:
        m = [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(n)]
        if not nonsingular or naive_det(m) != 0:
            return m


def test_det_matches_sympy():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        for _ in range(60):
            m = rand_mat(rng, n, nonsingular=False)
            assert intmat.det(m) == naive_det(m)


def test_hnf_preserves_span_and_is_triangular():
    rng = random.Random(23)
    for _ in range(120):
        m = rand_mat(rng, rng.choice((2, 3, 4)))
        h = intmat.hnf([row[:] for row in m])
        assert row_span_equal(m, h)
        n = len(h)
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i):
                assert h[i][j] == 0
            for k in range(i):
                # entries above a pivot are reduced into [0, pivot)
                assert 0 <= h[k][i] < h[i][i]


def test_hnf_is_canonical():
    # two different bases of the same lattice reduce to the same matrix
    rng = random.Random(29)
    for _ in range(60):
        m = rand_mat(rng, 3)
        u = _rand_unimodular(rng, 3)
        m2 = intmat.matmul(u, m)
        assert intmat.hnf([r[:] for r in m]) == intmat.hnf([r[:] for r in m2])


def _rand_unimodular(rng, n):
    u = intmat.identity(n)
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(-3, 4)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def test_snf_transforms_and_divisibility():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.choice((2, 3, 4))
        m = rand_mat(rng, n, nonsingular=False)
        d, u, v = intmat.snf_with_transforms([row[:] for row in m])
        assert intmat.matmul(intmat.matmul(u, m), v) == d
        assert is_unimodular(u) and is_unimodular(v)
        diag = [d[i][i] for i in range(n)]
        assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        for i in range(n - 1):
            assert diag[i] >= 0
            if diag[i + 1]:
                assert diag[i + 1] % max(diag[i], 1) == 0 or diag[i] == 0
        assert diag == sympy_snf_diag(m)


def test_inverse_matches_identity():
    rng = random.Random(37)
    for _ in range(80):
        n = rng.choice((2, 3, 4))
        m = rand_mat(rng, n)
        inv = intmat.inverse_frac(m)
        prod = [
            [sum(Fraction(m[i][k]) * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_solve_left_on_triangular():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.choice((2, 3, 4))
        h = [[0] * n for _ in range(n)]
        for i in range(n):
            h[i][i] = rng.choice((1, 2, 3, 5))
            for j in range(i + 1, n):
                h[i][j] = rng.randrange(-6, 7)
        vec = [Fraction(rng.randrange(-20, 21)) for _ in range(n)]
        c = intmat.solve_left_frac(h, vec)
        back = [sum(c[i] * h[i][j] for i in range(n)) for j in range(n)]
        assert back == list(vec)


@st.composite
def square_matrices(draw, max_n=5, bound=10**4):
    """Square integer matrices up to max_n x max_n, often singular or with
    zero leading entries, so elimination needs row swaps or stops early."""
    n = draw(st.integers(1, max_n))
    entry = st.integers(-bound, bound)
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    zeros = draw(st.integers(0, n))
    for i in range(min(zeros, n - 1)):
        m[i][:i + 1] = [0] * (i + 1)  # zero pivot, and zeros to its left
    if n > 1 and draw(st.booleans()):
        coefs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        m[draw(st.integers(0, n - 1))] = [sum(c * row[j] for c, row in zip(coefs, m))
                                           for j in range(n)]
    return m


@FEW
@given(square_matrices())
@example([[0]])
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
@example([[0, 2, 3], [0, 4, 5], [0, 6, 7]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
@example([[0, 1, 2, 3, 4], [0, 0, 1, 2, 3], [1, 2, 0, 1, 2], [5, 0, 1, 0, 1], [2, 2, 2, 2, 0]])
def test_det_matches_naive_oracle(m):
    assert intmat.det(m) == naive_det(m)
    assert intmat.det([tuple(r) for r in m]) == naive_det(m)


@FEW
@given(square_matrices())
@example([[0]])
@example([[0, 1], [1, 0]])
@example([[0, 2, 3], [0, 4, 5], [0, 6, 7]])
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
@example([[2, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 0], [0, 0, 0, 2]])
def test_adjugate_matches_sympy(m):
    if naive_det(m) == 0:
        with pytest.raises(ZeroDivisionError):
            intmat.adjugate(m)
    else:
        assert intmat.adjugate(m) == sympy.Matrix(m).adjugate().tolist()


@pytest.mark.parametrize("p,q", [(3, -1), (2, -5), (3, -7), (11, -3)])
def test_inverse_frac_of_frame_matches_sympy(p, q):
    basis = [list(row) for row in default_maximal_order(QuatAlg(p, q)).basis]
    want = sympy.Matrix(basis).inv().tolist()
    assert intmat.inverse_frac(basis) == [[Fraction(int(v.p), int(v.q)) for v in row]
                                          for row in want]


def test_singular_inputs():
    with pytest.raises(ZeroDivisionError):
        intmat.inverse_frac([[1, 2], [2, 4]])
    # rank-deficient rows just drop out of the Hermite form
    assert len(intmat.hnf([[1, 1, 1], [2, 2, 2], [0, 0, 1]])) == 2


@FEW
# up to the 16 x 4 product spans and 10^6-sized entries that lattice code feeds in
@given(int_matrices(max_rows=16, bound=10**6))
@example([[0, 0], [0, 0]])
@example([[0, 3, 1], [0, 6, 2]])
@example(FIVE_BY_FOUR)
@example([[-6, 4, 0, 1], [10, -7, 3, 0], [15, 0, 0, 5], [0, 0, 0, 0]] * 4)
def test_hnf_matches_sympy(m):
    assert intmat.hnf(m) == sympy_row_hnf(m)


@FEW
@given(int_matrices())
@example([[0, 0], [0, 0]])
@example(FIVE_BY_FOUR)
def test_snf_matches_sympy(m):
    d, u, v = intmat.snf_with_transforms(m)
    assert intmat.matmul(intmat.matmul(u, m), v) == d
    assert is_unimodular(u) and is_unimodular(v)
    assert all(d[i][j] == 0 for i in range(len(m)) for j in range(len(m[0])) if i != j)
    assert [d[i][i] for i in range(min(len(m), len(m[0])))] == sympy_snf_diag(m)
