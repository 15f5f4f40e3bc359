"""Differential tests of the integer quaternion kernel against Fractions.

Every expected value here comes from a Fraction formula written out in this
file, so the integer numerator arithmetic in quatlat.quat and the integer
frame maps in quatlat.lattice are checked against an independent path.
"""

from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatlat import (
    Quat,
    QuatAlg,
    UsageError,
    default_maximal_order,
    eichler_order,
    intmat,
    lattice_product,
    norm_elements,
    traceless_slices,
    two_sided_prime_ideal,
    z_plus_f_order,
    z_plus_zw_order,
)
from quatlat.lattice import box_slice_count, ideal_power_order, norm_keys

from oracles import naive_norm_elements, row_span_equal

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
quads = st.tuples(rationals, rationals, rationals, rationals)
FEW = settings(max_examples=60, deadline=None)


def frac_mul(x, y, p, q):
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (
        a0 * b0 + p * a1 * b1 + q * a2 * b2 - p * q * a3 * b3,
        a0 * b1 + a1 * b0 - q * a2 * b3 + q * a3 * b2,
        a0 * b2 + a2 * b0 + p * a1 * b3 - p * a3 * b1,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def frac_conj(x):
    return (x[0], -x[1], -x[2], -x[3])


def frac_nrd(x, p, q):
    a, b, c, d = x
    return a * a - p * b * b - q * c * c + p * q * d * d


def frac_inverse(x, p, q):
    n = frac_nrd(x, p, q)
    return tuple(v / n for v in frac_conj(x))


def vec_mat(v, rows):
    return tuple(sum(v[i] * rows[i][j] for i in range(4)) for j in range(4))


def lattices(mo):
    half = Fraction(1, 2)
    return [
        mo.lattice,
        z_plus_f_order(mo, 2),
        z_plus_f_order(mo, 3),
        z_plus_zw_order(mo, mo.i_basis[0], 5),
        # a projection basis vector other than the first needs scalar 1/2
        mo.lattice_from_frame_rows(
            [[1, 0, 0, 0], [half, 0, half, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        ),
    ]


@FEW
@given(quads, quads)
def test_products_norms_conjugates_match_fractions(alg, x, y):
    p, q = alg.p, alg.q
    qx, qy = alg.quat(*x), alg.quat(*y)
    assert qx.coords() == x
    assert (qx * qy).coords() == frac_mul(x, y, p, q)
    assert (qx + qy).coords() == tuple(a + b for a, b in zip(x, y))
    assert (qx - qy).coords() == tuple(a - b for a, b in zip(x, y))
    assert qx.conj().coords() == frac_conj(x)
    assert qx.nrd() == frac_nrd(x, p, q)
    assert qx.trd() == 2 * x[0]
    assert (qx * Fraction(2, 3)).coords() == tuple(v * Fraction(2, 3) for v in x)
    if any(x):
        assert qx.inverse().coords() == frac_inverse(x, p, q)
    # the stored form is reduced, so equal values compare and hash equal
    scaled = Quat(alg, tuple(-6 * v for v in qx.num), -6 * qx.den)
    assert scaled == qx and hash(scaled) == hash(qx)


@FEW
@given(quads)
def test_frame_round_trip(mo, x):
    qx = mo.alg.quat(*x)
    frame = mo.frame_coords(qx)
    assert frame == vec_mat(x, mo._from_ijk)
    assert mo.quat_from_frame(frame) == qx
    assert mo.quat_from_frame(frame).coords() == vec_mat(frame, mo.basis)


@FEW
@given(st.integers(0, 4), quads)
def test_contains_coords_matches_fraction_solve(mo, pick, coords):
    lat = lattices(mo)[pick]
    vec = [v * lat.den for v in coords]
    c = intmat.solve_left_frac([list(r) for r in lat.mat], vec)
    assert lat.contains_coords(coords) == all(v.denominator == 1 for v in c)
    # lattice points themselves: an integer combination of the basis rows
    ints = [int(v * 6) for v in coords]
    point = vec_mat(ints, [[Fraction(v, lat.den) for v in r] for r in lat.mat])
    assert lat.contains_coords(point)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), quads)
def test_conjugate_by_matches_fraction_conjugation(mo, pick, g):
    p, q = mo.alg.p, mo.alg.q
    if frac_nrd(g, p, q) == 0:
        return
    lat = lattices(mo)[pick]
    got = lat.conjugate_by(mo.alg.quat(*g))
    g_inv = frac_inverse(g, p, q)
    rows = []
    for row in lat.mat:
        b = vec_mat([Fraction(v, lat.den) for v in row], mo.basis)
        conj = frac_mul(frac_mul(g, b, p, q), g_inv, p, q)
        rows.append(vec_mat(conj, mo._from_ijk))
    den = lcm(got.den, *(v.denominator for row in rows for v in row))
    want_int = [[int(v * den) for v in row] for row in rows]
    got_int = [[v * (den // got.den) for v in row] for row in got.mat]
    assert row_span_equal(want_int, got_int)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([0, 1, 2, 4]), st.integers(-2, 8), st.integers(1, 2))
def test_norm_elements_order_matches_naive(mo, pick, m, height):
    lat = lattices(mo)[pick]
    got = [mo.frame_coords(x) for x in norm_elements(lat, m, height)]
    assert got == naive_norm_elements(lat, m, height)


@pytest.fixture(scope="session")
def slice_lattices(mo):
    """lattices(mo), then Eichler-5, the order Z + P3^2 and an Eichler-7
    order in the second algebra (2, -5)."""
    mo2 = default_maximal_order(QuatAlg(2, -5))
    return lattices(mo) + [
        eichler_order(mo, 5)[0],
        ideal_power_order(mo, 3, 2),
        eichler_order(mo2, 7)[0],
    ]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 7))
@example(5)
@example(6)
@example(7)
def test_slice_residues_are_the_least_completions(slice_lattices, pick):
    lat = slice_lattices[pick]
    alg = lat.order.alg
    den = lat.den
    for w, j, qs in traceless_slices(lat, 1):
        assert 0 <= j < den
        v = [Fraction(c, den) for c in w]
        assert lat.contains_coords([Fraction(j, den)] + v)
        assert not any(lat.contains_coords([Fraction(i, den)] + v) for i in range(j))
        assert qs == den * den * frac_nrd(vec_mat([0] + v, lat.order.basis), alg.p, alg.q)


@pytest.fixture(scope="module")
def walk_lattices(mo, slice_lattices):
    """slice_lattices, then two lattices whose last projection row needs a
    scalar residue r2 != 0: span(1, i1, i2, (1 + i3) / 2) and
    span(1, i1, (1 + i2) / 2, (1 + i3) / 3), whose scalars are still Z."""
    f = Fraction
    rows1 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [f(1, 2), 0, 0, f(1, 2)]]
    rows2 = [[1, 0, 0, 0], [0, 1, 0, 0], [f(1, 2), 0, f(1, 2), 0], [f(1, 3), 0, 0, f(1, 3)]]
    extra = [mo.lattice_from_frame_rows(rows) for rows in (rows1, rows2)]
    assert all(lat.slice_frame[2][3] for lat in extra)
    return slice_lattices + extra


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 9), st.integers(1, 2), st.integers(0, 40))
@example(5, 2, 20)
@example(7, 2, 8)
@example(8, 2, 3)  # the ball, not the box, sets the c3 window's odd start
@example(9, 1, 2)
def test_full_walk_is_the_lexicographic_naive_scan(walk_lattices, pick, height, cap):
    # the box walk yields every projection point of the box once, in
    # lexicographic order of w, with its least scalar completion j; the
    # walk pruned to the ball |w|^2 <= cap den^2 keeps its slices in order
    lat = walk_lattices[pick]
    den = lat.den
    b = height * den
    want = []
    for w in product(range(-b, b + 1), repeat=3):
        v = [Fraction(c, den) for c in w]
        j = next((j for j in range(den) if lat.contains_coords([Fraction(j, den)] + v)), None)
        if j is not None:
            want.append((w, j))
    got = [(w, j) for w, j, _qs in traceless_slices(lat, height)]
    assert got == want
    assert len(got) <= box_slice_count(lat, height)
    unit = ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], cap * den * den)
    pruned = [(w, j) for w, j, _qs in traceless_slices(lat, height, unit)]
    assert pruned == [(w, j) for w, j in want if sum(c * c for c in w) <= cap * den * den]


def test_slices_refuse_scalars_finer_than_z(mo):
    # Z-span of (1, i1, i2, i3) / 2: its scalars are Z / 2, so the completions
    # of a projection point are not one coset of Z; the naive oracle finds 52
    # units and 16 norm-3 elements up to height 2, most of which a walk that
    # keeps one scalar residue mod den per projection point would lose
    half = Fraction(1, 2)
    lat = mo.lattice_from_frame_rows([[half * (i == k) for k in range(4)] for i in range(4)])
    assert len(naive_norm_elements(lat, 1, 2)) == 52
    # the refusal holds on every call, so the per-lattice set-up never
    # turns it into a silent walk
    for _ in range(2):
        with pytest.raises(UsageError):
            next(traceless_slices(lat, 1))
    with pytest.raises(UsageError):
        norm_keys(lat, 1, 2)
    with pytest.raises(UsageError):
        norm_elements(lat, 1, 2)


def _frac_basis(lat):
    """Basis of lat in (1, I, J, IJ) coordinates, as Fractions."""
    return [vec_mat([Fraction(v, lat.den) for v in row], lat.order.basis) for row in lat.mat]


PRODUCT_PAIRS = {
    "O x Eichler-5": lambda mo: (mo.lattice, eichler_order(mo, 5)[0]),
    "P2 x P2": lambda mo: (two_sided_prime_ideal(mo, 2),) * 2,
    "(Z+3O) x (Z+Zi1+5O)": lambda mo: (z_plus_f_order(mo, 3),
                                       z_plus_zw_order(mo, mo.i_basis[0], 5)),
}


@pytest.mark.parametrize("pair", PRODUCT_PAIRS)
def test_lattice_product_spans_all_basis_products(mo, pair):
    p, q = mo.alg.p, mo.alg.q
    a, b = PRODUCT_PAIRS[pair](mo)
    got = lattice_product(a, b)
    rows = [vec_mat(frac_mul(x, y, p, q), mo._from_ijk)
            for x in _frac_basis(a) for y in _frac_basis(b)]
    den = lcm(got.den, *(v.denominator for row in rows for v in row))
    want_int = [[int(v * den) for v in row] for row in rows]
    got_int = [[v * (den // got.den) for v in row] for row in got.mat]
    assert row_span_equal(want_int, got_int)


def test_row_span_equal_reads_redundant_generators(mo):
    # the 16 products spanning O x Eichler-5 = O against the 4-row basis of O:
    # a generating set with more rows than its rank spans the same lattice
    a, b = PRODUCT_PAIRS["O x Eichler-5"](mo)
    p, q = mo.alg.p, mo.alg.q
    rows = [vec_mat(frac_mul(x, y, p, q), mo._from_ijk)
            for x in _frac_basis(a) for y in _frac_basis(b)]
    den = lcm(a.den, *(v.denominator for row in rows for v in row))
    raw = [[int(v * den) for v in row] for row in rows]
    basis = [[v * (den // a.den) for v in row] for row in a.mat]
    assert len(raw) == 16
    assert row_span_equal(raw, basis) and row_span_equal(basis, raw)
    # and it still tells a proper sublattice apart
    assert not row_span_equal(raw, [[2 * v for v in row] for row in basis])
    assert not row_span_equal(raw, basis[:3])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(-1, 8), st.integers(1, 2))
@example(5, 4, 2)
@example(6, 1, 1)
@example(7, 7, 1)
def test_norm_keys_are_the_sorted_naive_frame_tuples(slice_lattices, pick, m, height):
    lat = slice_lattices[pick]
    den = lat.den
    want = [tuple(int(v * den) for v in c) for c in naive_norm_elements(lat, m, height)]
    assert norm_keys(lat, m, height) == want
