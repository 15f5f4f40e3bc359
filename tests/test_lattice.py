import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatlat import (
    MaximalOrder,
    UpperHalfPoint,
    QuatAlg,
    eichler_order,
    ideal_power_order,
    intersect,
    intmat,
    lattice_sum,
    norm_elements,
    saturate_to_maximal,
    traceless_slices,
    two_sided_prime_ideal,
    z_plus_f_order,
    z_plus_zw_order,
)
from quatlat.counting import _fz_gram, _walk_form, _walk_setup
from quatlat.errors import ContainmentError, UsageError

from oracles import naive_norm_elements, naive_trace_zero_norm, sympy_snf_diag


def test_default_order_frame(mo):
    # Hurwitz-like closure at discriminant 6: the half-sum element is there
    assert mo.lattice.den == 2
    assert mo.lattice.mat == ((1, 1, 1, 1), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    assert mo.gram0 == ((-6, 0, 0), (0, 2, 0), (0, 0, -6))
    assert mo.lattice.shape().tuple3() == (1, 1, 1)
    assert mo.lattice.level() == 1
    assert mo.lattice.reduced_discriminant() == 6
    assert mo.lattice.is_order()


def test_saturation_finds_maximal(alg):
    mo = saturate_to_maximal(
        alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert mo.lattice.reduced_discriminant() == alg.discriminant
    # saturation from a non-order basis is rejected
    with pytest.raises(UsageError):
        saturate_to_maximal(
            alg, [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
        )


def test_non_maximal_order_rejected(alg):
    with pytest.raises(UsageError):
        MaximalOrder(
            alg, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )


def test_shape_table(mo):
    cases = [
        (z_plus_f_order(mo, 2), 8, (1, 2, 2), 2),
        (z_plus_f_order(mo, 3), 27, (3, 3, 3), 1),
        (z_plus_f_order(mo, 4), 64, (2, 4, 4), 2),
        (z_plus_f_order(mo, 5), 125, (5, 5, 5), 1),
        (ideal_power_order(mo, 2, 3), 16, (2, 2, 2), 2),
        (ideal_power_order(mo, 3, 3), 81, (3, 3, 9), 1),
        (z_plus_zw_order(mo, mo.i_basis[0], 25), 625, (1, 25, 25), 1),
        (z_plus_zw_order(mo, mo.i_basis[0], 49), 2401, (1, 49, 49), 1),
    ]
    for lat, n, m123, e in cases:
        sh = lat.shape()
        assert lat.level() == n
        assert sh.tuple3() == m123
        assert sh.e == e
        assert sh.level == n
        assert lat.is_order()
        split = lat.z_plus_trace_zero()
        assert (split.index_in(lat), sh.e) in ((1, 2), (2, 1))


def test_ideal_power_levels(mo):
    # level of the order attached to the k-th power of the prime over p
    # follows p^(2k - ceil(k/2))
    for p in (2, 3):
        for k in (1, 2, 3, 4):
            lat = ideal_power_order(mo, p, k)
            assert lat.level() == p ** (2 * k - (k + 1) // 2)


def test_two_sided_prime_ideal(mo):
    for p in (2, 3):
        ideal = two_sided_prime_ideal(mo, p)
        sq = intersect(mo.lattice, ideal)  # ideal is inside the order already
        assert sq == ideal
        prod = [
            x * y for x in ideal.basis_quats() for y in ideal.basis_quats()
        ]
        scaled = mo.lattice_from_quats(
            [q * Fraction(1, p) for q in prod if not q.is_zero()]
        )
        assert scaled.is_sublattice_of(mo.lattice)  # P^2 = p O


def test_invariant_factors_match_sympy(mo):
    rng = random.Random(211)
    ambient = mo.lattice
    for _ in range(40):
        rows = []
        for i in range(4):
            row = [0] * 4
            row[i] = rng.choice((1, 2, 3, 4, 6))
            for j in range(i + 1, 4):
                row[j] = rng.randrange(0, 4)
            rows.append(row)
        sub_rows = [
            [sum(rows[i][k] * ambient.mat[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        sub = ambient.order.lattice_from_frame_rows(
            [[Fraction(v, ambient.den) for v in r] for r in sub_rows]
        )
        inv = sub.invariant_factors_in(ambient)
        assert list(inv.factors) == sympy_snf_diag(rows)
        assert inv.index == sub.index_in(ambient)
        # t1 is the smallest t with index | t^2
        t1 = inv.t1
        assert (t1 * t1) % inv.index == 0
        assert all((t * t) % inv.index for t in range(1, t1))


def test_lattice_sum_and_intersect(mo):
    a = z_plus_f_order(mo, 2)
    b = z_plus_f_order(mo, 3)
    s = lattice_sum(a, b)
    assert a.is_sublattice_of(s) and b.is_sublattice_of(s)
    i = intersect(a, b)
    assert i.is_sublattice_of(a) and i.is_sublattice_of(b)
    assert i == z_plus_f_order(mo, 6)
    assert s == mo.lattice


def sample_lattices(mo):
    return [
        mo.lattice,
        z_plus_f_order(mo, 2),
        z_plus_f_order(mo, 3),
        z_plus_zw_order(mo, mo.i_basis[0], 5),
        eichler_order(mo, 7)[0],
        two_sided_prime_ideal(mo, 3),
    ]


small_ints = st.integers(-3, 3)
int_rows = st.lists(st.tuples(small_ints, small_ints, small_ints, small_ints),
                    min_size=4, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), int_rows)
def test_intersect_lies_in_both_and_has_the_sum_index(mo, i, j, rows):
    lats = sample_lattices(mo)
    a = lats[i]
    # b: a random full sublattice of a sample lattice (or the lattice itself)
    b = lats[j]
    sub = [[sum(r[k] * b.mat[k][l] for k in range(4)) for l in range(4)] for r in rows]
    if intmat.det(sub):
        b = mo.lattice_from_frame_rows([[Fraction(v, b.den) for v in r] for r in sub])
    meet = intersect(a, b)
    assert meet.is_sublattice_of(a) and meet.is_sublattice_of(b)
    # with both containments this pins meet down as the whole intersection
    assert meet.det_frame() * lattice_sum(a, b).det_frame() == a.det_frame() * b.det_frame()


def test_conjugation_by_units_preserves_level_and_shape(mo):
    lat = ideal_power_order(mo, 3, 2)
    n, sh = lat.level(), lat.shape()
    units = norm_elements(mo.lattice, 1, 2)
    assert len(units) >= 4
    for g in units:
        conj = lat.conjugate_by(g)
        assert conj.is_sublattice_of(mo.lattice)
        assert conj.level() == n
        assert conj.shape().level == sh.level
        assert conj.is_order()


def test_eichler_orders(mo):
    for n in (5, 7, 25):
        lat, emb = eichler_order(mo, n)
        assert lat.level() == n
        assert lat.is_order()
        assert emb.nrd() != 0


def test_eichler_level_coprimality(mo):
    with pytest.raises(UsageError):
        eichler_order(mo, 6)


def test_norm_elements_vs_naive(mo):
    lat = mo.lattice
    for m, height in ((1, 2), (2, 2), (3, 2), (5, 3)):
        got = [tuple(mo.frame_coords(q)) for q in norm_elements(lat, m, height)]
        want = [tuple(c) for c in naive_norm_elements(lat, m, height)]
        assert got == want, (m, height)


def test_norm_elements_vs_naive_sub_order(mo):
    lat = z_plus_f_order(mo, 2)
    for m, height in ((1, 2), (4, 2), (6, 3)):
        got = [tuple(mo.frame_coords(q)) for q in norm_elements(lat, m, height)]
        want = [tuple(c) for c in naive_norm_elements(lat, m, height)]
        assert got == want, (m, height)


def test_traceless_slices_cover_exactly(mo):
    lat = z_plus_f_order(mo, 3)
    height = 2
    den = lat.den
    seen = set()
    for w, j, qs in traceless_slices(lat, height):
        assert all(abs(v) <= height * den for v in w)
        assert 0 <= j < den
        assert qs == naive_trace_zero_norm(mo, w)
        # the completion (j + den Z)/den really lies in the lattice
        coords = (Fraction(j, den), Fraction(w[0], den), Fraction(w[1], den), Fraction(w[2], den))
        assert lat.contains_coords(coords)
        assert not lat.contains_coords(
            (Fraction(j + 1, den), Fraction(w[0], den), Fraction(w[1], den), Fraction(w[2], den))
        ) or den == 1
        assert w not in seen
        seen.add(w)
    # count against a brute scan of the projection
    brute = 0
    bound = height * den
    for w1 in range(-bound, bound + 1):
        for w2 in range(-bound, bound + 1):
            for w3 in range(-bound, bound + 1):
                for j in range(den):
                    coords = (
                        Fraction(j, den),
                        Fraction(w1, den),
                        Fraction(w2, den),
                        Fraction(w3, den),
                    )
                    if lat.contains_coords(coords):
                        brute += 1
                        break
    assert len(seen) == brute


def quad(G, w):
    return sum(w[k] * G[k][l] * w[l] for k in range(3) for l in range(3))


# sample_lattices(mo)[5], an ideal, does not contain 1 and has no slices
@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 4),
    st.integers(1, 3),
    st.lists(small_ints, min_size=9, max_size=9),
    st.integers(0, 300),
)
def test_pruned_slices_are_exactly_the_ellipsoid(mo, pick, height, a, cap):
    # an integer Gram A^T A makes w G w^T exact, so boundary slices count
    A = [a[0:3], a[3:6], a[6:9]]
    if intmat.det(A) == 0:
        A = [[1, 0, 0], [0, 1, 0], [a[0], a[1], 1]]
    G = [[sum(A[r][k] * A[r][l] for r in range(3)) for l in range(3)] for k in range(3)]
    lat = sample_lattices(mo)[pick]
    full = list(traceless_slices(lat, height))
    pruned = list(traceless_slices(lat, height, ([[float(v) for v in r] for r in G], cap)))
    # the reduced basis sets the order; sorted lists still catch a repeat
    assert sorted(pruned) == sorted(s for s in full if quad(G, s[0]) <= cap)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 4), st.floats(-1.0, 1.0), st.floats(0.5, 2.0), st.floats(1.0, 40.0))
def test_pruned_slices_keep_every_slice_inside_the_fz_ellipsoid(mo, pick, x, y, cap):
    G = _fz_gram(mo, UpperHalfPoint(x, y))
    lat = sample_lattices(mo)[pick]
    full = list(traceless_slices(lat, 2))
    pruned = list(traceless_slices(lat, 2, (G, cap)))
    inside = [s for s in full if quad(G, s[0]) <= cap]
    assert sorted(s for s in pruned if quad(G, s[0]) <= cap) == sorted(inside)
    assert len(pruned) == len(set(pruned)) and set(pruned) <= set(full)


def test_forms_that_are_not_positive_definite_are_refused(mo):
    # the zero form once divided by zero inside the basis reduction
    zero, nan = 0.0, float("nan")
    forms = ([[zero] * 3] * 3, [[1.0, 0, 0], [0, zero, 0], [0, 0, 1.0]],
             [[1.0, 0, 0], [0, 1.0, 0], [0, 0, -1.0]], [[nan] * 3] * 3)
    for lat in sample_lattices(mo)[:2]:
        for G in forms:
            with pytest.raises(UsageError):
                list(traceless_slices(lat, 2, (G, 4.0)))


def _leading_minors_positive(G) -> bool:
    return (G[0][0] > 0 and G[0][0] * G[1][1] - G[0][1] * G[1][0] > 0
            and intmat.det(G) > 0)


# delta 1 gives lambda 1.5 in the walk form, 0.05 gives 20.5, and 0.01
# gives 100.5, which WALK_LAMBDA_CAP cuts to 32
@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 9),
    st.sampled_from((0.01, 0.05, 1.0)),
    st.integers(1, 4),
    st.floats(-0.5, 0.5),
    st.floats(0.8, 1.25),
)
@example(0, 0.05, 4, 0.05, 1.02)
@example(3, 1.0, 3, -0.4, 0.85)
@example(8, 0.01, 4, 0.3, 1.2)
@example(9, 0.05, 2, -0.1, 0.9)
def test_reduced_walk_is_the_box_walk_cut_to_the_ellipsoid(algebra_orders, k, delta, m, x, y):
    # enumerate_norm_ball's walk form at (z, delta, m) on the box of t = 2:
    # the reduced-basis walk yields exactly the box's slices inside the
    # ellipsoid, each once; the float filter skips the slices within 1e-9
    # of the cap, where the walk's slack may keep either way
    lat = algebra_orders[k]
    den = lat.den
    height = 2 * m
    z = UpperHalfPoint(x, y)
    box = list(traceless_slices(lat, height))
    gram, basis, c_walk = _walk_setup(lat, z, delta)
    G, c = _walk_form(gram, lat.order.gram0, delta)
    cap = c * den * den * m
    assert c == c_walk and basis == _walk_setup(lat, z, delta)[1]
    pruned = list(traceless_slices(lat, height, (G, cap)))
    assert pruned == list(traceless_slices(lat, height, (basis, cap)))
    assert len(pruned) == len(set(pruned)) and set(pruned) <= set(box)
    near = {s for s in box if abs(quad(G, s[0]) - cap) <= 1e-9 * cap}
    assert (sorted(s for s in pruned if s not in near)
            == sorted(s for s in box if quad(G, s[0]) <= cap and s not in near))
    # the same form scaled by 8 and rounded to integers, where the filter
    # is exact
    G8 = [[round(8 * v) for v in row] for row in G]
    if _leading_minors_positive(G8):
        cap8 = floor(8 * cap)
        pruned = list(traceless_slices(lat, height, ([[float(v) for v in r] for r in G8], cap8)))
        assert sorted(pruned) == sorted(s for s in box if quad(G8, s[0]) <= cap8)


def test_containment_errors(mo):
    big = mo.lattice
    small = z_plus_f_order(mo, 2)
    with pytest.raises(ContainmentError):
        big.index_in(small)
