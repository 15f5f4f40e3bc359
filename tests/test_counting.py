import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quatlat import (
    BoxConstant,
    CountQuery,
    UpperHalfPoint,
    ZBox,
    box_constant,
    build_injection,
    eichler_order,
    enumerate_norm_ball,
    explicit_bound,
    ideal_power_order,
    in_ball,
    intmat,
    norm_elements,
    order_small_norm_check,
    project_alpha,
    reduce_into_box,
    square_norm_factor_check,
    sweep_counts,
    u_dist,
    verify_congruences,
    z_plus_f_order,
    z_plus_zw_order,
)
from quatlat import cli, counting
from quatlat.arith import sqrt_ceil_of_product
from quatlat.cli import sample_points
from quatlat.counting import _max_divisor_count, _pair_det
from quatlat.errors import ContainmentError, SearchExhausted, TheoremViolation, UsageError
from quatlat.quat import apply_quat

from oracles import is_unimodular, naive_norm_elements, naive_norm_table

BOX = ZBox(-0.5, 0.5, 0.8, 1.2)
Z0 = UpperHalfPoint(0.05, 1.02)


def frame_bc(mo, delta, box=BOX):
    return box_constant(delta, box, mo.alg, frame_inv=mo._from_ijk)


def shapes_under_test(mo):
    return [
        mo.lattice,
        z_plus_f_order(mo, 2),
        z_plus_f_order(mo, 3),
        ideal_power_order(mo, 2, 3),
        ideal_power_order(mo, 3, 3),
        z_plus_zw_order(mo, mo.i_basis[0], 25),
    ]


def test_witness_structure(mo):
    for lat in shapes_under_test(mo):
        w = build_injection(lat)
        sh = lat.shape()
        assert w.shape.tuple3() == sh.tuple3()
        assert w.shape.e == 2
        assert w.modulus == 2 * sh.m1 * sh.m2 * sh.m3
        assert is_unimodular([list(r) for r in w.delta_mat])
        # Delta is exactly V^-1 for the Smith transform V, sign included
        _d, _u, v = intmat.snf_with_transforms(lat.trace_zero_mat())
        assert intmat.matmul(w.delta_mat, v) == intmat.identity(3)
        assert (w.big_r * w.big_r_inv) % w.modulus == 1
        assert gcd(w.big_s, w.modulus) == 1
        assert (w.s2, w.s3) != (w.r2, w.r3)
        assert intmat.det([list(r) for r in w.g_mat]) in (1, -1)


def test_congruences_and_injectivity(mo):
    delta = 1.0
    t = frame_bc(mo, delta)
    for lat in shapes_under_test(mo):
        w = build_injection(lat)
        target = w.lat  # split companion
        seen = {}
        for m in range(1, 13):
            for a in enumerate_norm_ball(target, m, Z0, delta, t):
                assert verify_congruences(w, a)
                tup = project_alpha(w, a)
                key = (tup.a0, tup.a_a, tup.a_b, tup.a3)
                assert key not in seen or seen[key] == a, (lat.level(), key)
                seen[key] = a


def _fraction_projection(mo, w, alpha):
    """(a0, A, B, a3) from the Fraction frame coordinates of alpha times g."""
    coords = mo.frame_coords(alpha)
    assert all(c.denominator == 1 for c in coords)
    a0, a1, a2, a3 = (int(c) for c in coords)
    g = w.g_mat
    return (a0, *(a1 * g[0][k] + a2 * g[1][k] + a3 * g[2][k] for k in range(3)))


def _fraction_congruences(w, tup) -> bool:
    """The three residue constraints, term by term as the witness states them."""
    _a0, aa, ab, a3 = tup
    m1, m2, m3 = w.shape.tuple3()
    dm = w.delta_mat
    r_inv = Fraction(w.big_r_inv)
    s_inv = pow(w.big_s, -1, w.modulus)
    big_r2 = dm[1][0] + w.r2 * dm[1][1] + w.r3 * dm[1][2]
    b_res = ab - aa * r_inv * w.s_prime
    rhs = aa * r_inv * dm[0][2] + s_inv * b_res * (dm[1][2] - big_r2 * r_inv * dm[0][2])
    return aa % m1 == 0 and b_res % m2 == 0 and (a3 - rhs) % m3 == 0


@pytest.fixture(scope="module")
def certify_witnesses(mo):
    """The benchmark's certify orders, each with its witness."""
    i1 = mo.alg.quat(0, 1, 0, 0)
    lats = [eichler_order(mo, n)[0] for n in (5, 7, 11, 13)]
    lats += [z_plus_zw_order(mo, i1, p) for p in (5, 7)]
    lats += [z_plus_f_order(mo, f) for f in (3, 5)]
    return [(lat, build_injection(lat)) for lat in lats]


def test_congruences_match_a_fraction_recomputation(mo, certify_witnesses):
    t = frame_bc(mo, 1.0)
    z = sample_points(BOX, 1, 3)[0]
    checked = 0
    for lat, w in certify_witnesses:
        # a tampered S' makes some lattice elements fail the second
        # congruence, so both answers of verify_congruences are compared
        bent = replace(w, s_prime=w.s_prime + 1)
        for m in range(1, 9):
            for a in enumerate_norm_ball(lat, m, z, 1.0, t):
                doubled = a + a  # the certify convention: 2 alpha is in w.lat
                tup = _fraction_projection(mo, w, doubled)
                p = project_alpha(w, doubled)
                assert (p.a0, p.a_a, p.a_b, p.a3) == tup
                assert verify_congruences(w, doubled) is _fraction_congruences(w, tup) is True
                assert verify_congruences(bent, doubled) is _fraction_congruences(bent, tup)
                checked += 1
    assert checked > 100
    # outside the witness lattice: non-integral frame coordinates, and an
    # integral element of the maximal order that Z + 3 O does not hold
    lat, w = certify_witnesses[6]
    half = mo.quat_from_frame((1, 1, 0, 0), 2)
    with pytest.raises(ContainmentError, match="integer coords"):
        verify_congruences(w, half)
    with pytest.raises(ContainmentError, match="witness lattice"):
        project_alpha(w, mo.i_basis[0])
    with pytest.raises(ContainmentError, match="witness lattice"):
        verify_congruences(w, mo.i_basis[0])


def test_projection_is_linear(mo):
    lat = z_plus_f_order(mo, 3)
    w = build_injection(lat)
    target = w.lat
    rng = random.Random(401)
    qs = [q for q in target.basis_quats()]
    for _ in range(50):
        a = sum(
            (rng.randrange(-4, 5) * q for q in qs), mo.alg.quat(0)
        )
        b = sum(
            (rng.randrange(-4, 5) * q for q in qs), mo.alg.quat(0)
        )
        ta, tb = project_alpha(w, a), project_alpha(w, b)
        ts = project_alpha(w, a + b)
        assert (ts.a0, ts.a_a, ts.a_b, ts.a3) == (
            ta.a0 + tb.a0,
            ta.a_a + tb.a_a,
            ta.a_b + tb.a_b,
            ta.a3 + tb.a3,
        )


def test_explicit_bound_frozen_value(mo):
    # trivial shape, unit box constant, norms up to 4: 5^4 choices
    from quatlat.quat import BoxConstant

    w = build_injection(mo.lattice)
    assert explicit_bound(w, BoxConstant(1.0, 1.0), 4) == 625


def test_explicit_bound_monotone(mo):
    from quatlat.quat import BoxConstant

    for lat in (mo.lattice, ideal_power_order(mo, 3, 3)):
        w = build_injection(lat)
        prev = 0
        for l_max in (1, 2, 4, 8, 16, 32):
            b = explicit_bound(w, BoxConstant(1.0, 1.5), l_max)
            assert b >= prev
            prev = b
        b1 = explicit_bound(w, BoxConstant(1.0, 1.0), 10)
        b2 = explicit_bound(w, BoxConstant(1.0, 2.0), 10)
        assert b2 >= b1


def test_sweep_matches_reference_enumeration(mo):
    delta = 0.6
    t = frame_bc(mo, delta)
    for lat in shapes_under_test(mo)[:4]:
        w = build_injection(lat)
        q = CountQuery(lat, Z0, delta, 10)
        rep = sweep_counts(q, w, t)
        ref = {}
        for m in range(1, 11):
            els = enumerate_norm_ball(lat, m, Z0, delta, t)
            if els:
                ref[m] = len(els)
        assert dict(rep.per_m) == ref, lat.level()
        assert rep.total == sum(ref.values())
        assert rep.total <= rep.explicit_bound


def test_sweep_against_naive_oracle(mo):
    # small norms, fully brute forced coordinate box
    delta = 0.7
    t = frame_bc(mo, delta)
    lat = z_plus_f_order(mo, 2)
    w = build_injection(lat)
    q = CountQuery(lat, Z0, delta, 4)
    rep = sweep_counts(q, w, t)
    naive_total = 0
    for m in range(1, 5):
        hb = sqrt_ceil_of_product(t.t, m)
        for c in naive_norm_elements(lat, m, hb):
            alpha = mo.quat_from_frame(c)
            if in_ball(alpha, Z0, delta):
                naive_total += 1
    assert rep.total == naive_total


def test_sweep_squares_only(mo):
    delta = 0.8
    t = frame_bc(mo, delta)
    lat = z_plus_f_order(mo, 3)
    w = build_injection(lat)
    full = sweep_counts(CountQuery(lat, Z0, delta, 9), w, t)
    sq = sweep_counts(CountQuery(lat, Z0, delta, 3, squares_only=True), w, t)
    full_sq_total = sum(c for m, c in full.per_m if isqrt(m) ** 2 == m)
    assert sq.total == full_sq_total
    assert all(isqrt(m) ** 2 == m for m, _ in sq.per_m)


def test_counted_elements_really_move_little(mo):
    delta = 0.4
    t = frame_bc(mo, delta)
    lat = mo.lattice
    for m in (1, 2, 3, 4, 6):
        for a in enumerate_norm_ball(lat, m, Z0, delta, t):
            assert a.nrd() == m
            assert u_dist(Z0, apply_quat(a, Z0)) <= delta + 1e-9


def test_sweep_raises_on_a_ball_element_outside_its_norm_box(mo):
    # t = 1 is below the certified constant: a norm-7 ball element exceeds
    # the norm-7 box ceil(sqrt 7) but lies inside the walk's box ceil(sqrt 10)
    small = BoxConstant(1.0, 1.0)
    lat = mo.lattice
    escaped = [
        a for a in enumerate_norm_ball(lat, 7, Z0, 1.0, frame_bc(mo, 1.0))
        if sqrt_ceil_of_product(1.0, 7)
        < max(abs(c) for c in mo.frame_coords(a))
        <= sqrt_ceil_of_product(1.0, 10)
    ]
    assert escaped
    with pytest.raises(TheoremViolation, match="outside the box"):
        sweep_counts(CountQuery(lat, Z0, 1.0, 10), build_injection(lat), small)


def test_witness_shape_mismatch_rejected(mo):
    t = frame_bc(mo, 1.0)
    w = build_injection(mo.lattice)
    other = z_plus_f_order(mo, 3)
    with pytest.raises(UsageError):
        sweep_counts(CountQuery(other, Z0, 1.0, 5), w, t)


def test_square_norm_factorization(mo):
    rng = random.Random(409)
    lat = mo.lattice
    t = frame_bc(mo, 1.0)
    checked = 0
    for ell in (1, 2, 3, 5):
        for a in norm_elements(lat, ell * ell, 2 * ell + 2):
            lhs, rhs, is_scalar = square_norm_factor_check(a, ell)
            assert lhs == rhs
            if rhs == 0:
                assert is_scalar
                checked += 1
    assert checked >= 8  # the +-ell scalars at least
    with pytest.raises(UsageError):
        square_norm_factor_check(mo.alg.quat(2), 3)


def test_pair_det_antisymmetric_zero_for_commuting(mo):
    i1 = mo.i_basis[0]
    a = mo.alg.one() + i1
    b = mo.alg.quat(2) + 3 * i1  # same commutative subring
    assert a * b == b * a
    assert _pair_det(a, b) == 0
    j = mo.i_basis[1]
    c = mo.alg.one() + j
    assert _pair_det(a, c) != 0 or a * c == c * a


def test_small_norm_check_certifies(mo):
    box = ZBox(-0.25, 0.25, 0.9, 1.15)
    z = UpperHalfPoint(0.05, 1.02)
    delta = 0.05
    t = box_constant(delta, box, mo.alg, frame_inv=mo._from_ijk)
    lat = z_plus_zw_order(mo, mo.i_basis[0], 25)
    rep = order_small_norm_check(lat, z, delta, t, m_cap=4)
    assert rep.level == 625
    assert rep.m_star == 1
    assert rep.m_star_certified == 4
    assert rep.warnings == ()
    assert rep.per_m == ((1, 2), (2, 0), (3, 0), (4, 2))


def test_small_norm_check_validation(mo):
    t = frame_bc(mo, 0.05, ZBox(-0.25, 0.25, 0.9, 1.15))
    with pytest.raises(UsageError):
        order_small_norm_check(mo.lattice, Z0, 0.2, t, m_cap=2)  # delta mismatch


def test_reduce_into_box(mo):
    box = ZBox(-0.5, 0.5, 0.7, 1.5)
    inside = UpperHalfPoint(0.2, 1.0)
    z2, g = reduce_into_box(inside, box, mo)
    assert z2 == inside and g == mo.alg.one()
    # push an interior point out by a unit, then ask for it back
    units = [u for u in norm_elements(mo.lattice, 1, 2) if u != mo.alg.one()]
    moved = apply_quat(units[0], UpperHalfPoint(0.1, 1.0))
    out = UpperHalfPoint(moved.real, moved.imag)
    z3, g3 = reduce_into_box(out, box, mo, height_cap=8)
    assert box.contains(z3)
    assert g3.nrd() == 1
    w = apply_quat(g3, out)
    assert abs(w - z3.as_complex()) < 1e-9
    hopeless = ZBox(90.0, 90.5, 0.001, 0.0011)
    with pytest.raises(SearchExhausted):
        reduce_into_box(UpperHalfPoint(0.0, 1.0), hopeless, mo, height_cap=2)


# A box constant of 1 keeps the brute-force boxes small (height ceil(sqrt m));
# enumerate_norm_ball's contract holds for any t, box and point alike.
ORACLE_T = 1.0
ORACLE_NORMS = (1, 2, 3, 4)


@pytest.fixture(scope="module")
def ball_oracle(mo, algebra_orders):
    """Per (lattice, norm): the lattice and its naive norm-m box elements.

    Lattices 0-3 live in (3, -1); 4-13 are algebra_orders, a maximal and an
    Eichler order in each of five algebras."""
    lats = [
        mo.lattice,
        z_plus_f_order(mo, 3),
        z_plus_zw_order(mo, mo.i_basis[0], 5),
        eichler_order(mo, 5)[0],
    ] + algebra_orders
    out = {}
    for k, lat in enumerate(lats):
        tables = {}
        for m in ORACLE_NORMS:
            height = sqrt_ceil_of_product(ORACLE_T, m)
            if height not in tables:
                tables[height] = naive_norm_table(lat, height)
            out[(k, m)] = (lat, tables[height].get(m, []))
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 13),
    st.sampled_from(ORACLE_NORMS),
    st.floats(-0.5, 0.5),
    st.floats(0.8, 1.2),
    st.floats(0.01, 2.0),
)
@example(2, 4, 2.75, 0.3, 1.5)  # a point far outside the z-box
@example(3, 3, -1.9, 3.1, 0.6)
# small deltas: lambda = 1/2 + 1/delta = 20.5 in the walk form, and 1000.5,
# which WALK_LAMBDA_CAP cuts to 32
@example(0, 4, 0.05, 1.02, 0.05)
@example(1, 4, -0.3, 0.9, 0.05)
@example(0, 4, 0.05, 1.02, 1e-3)
@example(3, 1, 0.2, 1.1, 1e-3)
# the other algebras, at delta 0.05 and 1
@example(7, 4, 0.1, 0.95, 0.05)
@example(9, 4, -0.2, 1.1, 1.0)
@example(11, 3, 0.3, 1.0, 0.05)
@example(13, 4, 0.05, 1.02, 1.0)
def test_enumerate_norm_ball_matches_naive_oracle(ball_oracle, k, m, x, y, delta):
    lat, naive = ball_oracle[(k, m)]
    order = lat.order
    z = UpperHalfPoint(x, y)
    got = [order.frame_coords(a) for a in enumerate_norm_ball(lat, m, z, delta,
                                                              BoxConstant(delta, ORACLE_T))]
    want = [c for c in naive if in_ball(order.quat_from_frame(c), z, delta)]
    assert got == want


# height of the naive boxes below; every example's sweep box fits inside it
SWEEP_H = 6


@pytest.fixture(scope="module")
def sweep_oracle(mo):
    """Per lattice (den-2 maximal, Eichler-5): witness and the naive box's
    elements of each norm up to 9, the largest a sweep below reaches."""
    out = []
    for lat in (mo.lattice, eichler_order(mo, 5)[0]):
        table = naive_norm_table(lat, SWEEP_H)
        quats = {m: [mo.quat_from_frame(c) for c in table.get(m, [])] for m in range(1, 10)}
        out.append((lat, build_injection(lat), quats))
    return out


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 1),
    st.booleans(),
    st.integers(1, 3),
    st.floats(-1.2, 1.2),
    st.floats(0.6, 2.0),
    st.floats(1e-3, 0.5),
)
@example(0, False, 3, 1.2, 0.6, 0.5)  # outside the z-box, with the largest t
@example(1, True, 2, -1.1, 1.9, 1e-3)
@example(0, True, 2, 0.05, 1.02, 0.3)
@example(1, False, 3, 0.3, 0.9, 1e-3)
def test_sweep_counts_match_naive_ball_counts(mo, sweep_oracle, k, squares, l_max, x, y, delta):
    # t is certified at z itself, so the naive box of height SWEEP_H holds
    # every ball element of the swept norms; no enumerator of the package
    # takes part in the expected counts
    lat, w, quats = sweep_oracle[k]
    z = UpperHalfPoint(x, y)
    t = box_constant(delta, ZBox(x, x, y, y), mo.alg, frame_inv=mo._from_ijk)

    def norms(ell):
        return [i * i for i in range(1, ell + 1)] if squares else list(range(1, ell + 1))

    while l_max > 1 and sqrt_ceil_of_product(t.t, norms(l_max)[-1]) > SWEEP_H:
        l_max -= 1
    assert sqrt_ceil_of_product(t.t, norms(l_max)[-1]) <= SWEEP_H
    want = {}
    for m in norms(l_max):
        n = sum(1 for a in quats[m] if in_ball(a, z, delta))
        if n:
            want[m] = n
    rep = sweep_counts(CountQuery(lat, z, delta, l_max, squares), w, t)
    assert dict(rep.per_m) == want


def test_walk_takes_negative_scalars_outside_the_residue_class(mo):
    # in this den-5 lattice the slice w = (-5, -2, 0) completes by scalars
    # h = 4 mod 5, and its norm-2 element has h = -11: |h| lies in the class
    # 1, so a walk that steps |h| through the class 4 alone misses it
    f = Fraction
    lat = mo.lattice_from_frame_rows([[1, 0, 0, 0], [f(1, 5), 1, f(2, 5), 0],
                                      [f(2, 5), 0, 1, 0], [f(2, 5), 0, 0, 1]])
    alpha = mo.quat_from_frame((-11, -5, -2, 0), 5)
    assert lat.den == 5 and lat.contains_quat(alpha) and alpha.nrd() == 2
    z = UpperHalfPoint(0.0, 1.0)
    delta = u_dist(z, apply_quat(alpha, z)) + 1e-3
    found = enumerate_norm_ball(lat, 2, z, delta, BoxConstant(delta, 2.5))
    assert alpha in found
    assert all(lat.contains_quat(a) and a.nrd() == 2 for a in found)


def test_max_divisor_count_matches_sieve():
    top = 5000
    counts = [0] * (top + 1)
    for d in range(1, top + 1):
        for k in range(d, top + 1, d):
            counts[k] += 1
    best = 1
    assert _max_divisor_count(0) == 1
    for n in range(1, top + 1):
        best = max(best, counts[n])
        assert _max_divisor_count(n) == best, n
    # above the exact range the bound stays the 2*sqrt fallback
    assert _max_divisor_count(3_000_001) == 2 * isqrt(3_000_001) + 1


@pytest.mark.parametrize("seed", [1, 2])
def test_prefilter_keeps_an_element_on_the_ball_boundary(mo, seed):
    # delta = u(z, alpha z) - 5e-10 lies below alpha's own move, which the
    # walk's integer 2 h^2 + F test still accepts through U_SLACK; the scalar
    # floor ahead of it must keep alpha too, which only its PREFILTER_SLACK
    # does.  At delta = u - 1e-8 the decision must drop alpha and -alpha
    # (same move), though PREFILTER_SLACK alone would keep them
    lat = eichler_order(mo, 5)[0]
    t = frame_bc(mo, 1.0)
    z = sample_points(BOX, 2, seed)[1]
    found = [a for m in range(1, 9) for a in enumerate_norm_ball(lat, m, z, 1.0, t)]
    alpha = max(found, key=lambda a: u_dist(z, apply_quat(a, z)))
    u = u_dist(z, apply_quat(alpha, z))
    assert 0.1 < u <= 1.0
    delta = u - 5e-10
    m = int(alpha.nrd())
    on_boundary = enumerate_norm_ball(lat, m, z, delta, t)
    assert alpha in on_boundary
    w = build_injection(lat)
    rep = sweep_counts(CountQuery(lat, z, delta, m), w, t)
    assert dict(rep.per_m)[m] == len(on_boundary)
    below = enumerate_norm_ball(lat, m, z, u - 1e-8, t)
    assert alpha not in below and -alpha not in below
    assert set(below) <= set(on_boundary)
    dropped = set(on_boundary) - set(below)
    assert all(u_dist(z, apply_quat(b, z)) > u - 1e-8 for b in dropped)
    rep = sweep_counts(CountQuery(lat, z, u - 1e-8, m), w, t)
    assert dict(rep.per_m).get(m, 0) == len(below)


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("eps", [0.3, 0.1, 0.01])
def test_walk_form_keeps_a_trace_zero_element_on_the_ball_boundary(mo, eps, scale):
    # alpha = scale J has trace zero and fixes i, so at z = eps + i it moves
    # z by u of about eps^2: lambda = 1/2 + 1/delta is 11.4, then past
    # WALK_LAMBDA_CAP.  With a0 = 0, 2 a0^2 + F_z = (4 u + 2) m is also the
    # walk form's bound up to PREFILTER_SLACK, so a walk cap below
    # (c + lambda (c - 2)) den^2 m, c = 4 (delta + PREFILTER_SLACK) + 2,
    # loses alpha
    alpha = scale * mo.alg.quat(0, 0, 1, 0)
    z = UpperHalfPoint(eps, 1.0)
    delta = u_dist(z, apply_quat(alpha, z)) - 5e-10
    found = enumerate_norm_ball(mo.lattice, scale * scale, z, delta, BoxConstant(delta, 2.0))
    assert alpha in found


REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def run_count_against_references(mo, tmp_path, capsys, label):
    """A 2-sample count --lmax 2 op of the benchmark, checked against its rows."""
    cfg = {"algebra": [3, -1], "sweep": {"samples": 2}}
    if label == "e5-sq2":
        lat = eichler_order(mo, 5)[0]
        coords = [c for q in lat.basis_quats() for c in q.coords()]
        den = lcm(*(c.denominator for c in coords))
        cfg["order"] = {"den": den, "mat": [int(c * den) for c in coords]}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    capsys.readouterr()
    argv = ["count", "--config", str(cfg_file), "--seed", "1", "--lmax", "2"]
    assert cli.main(argv + (["--squares"] if label == "e5-sq2" else [])) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows == json.loads(REFERENCES.read_text())["count"]["1"][label]


@pytest.mark.parametrize("label", ["max-L2", "e5-sq2"])
def test_count_takes_one_smith_form_per_lattice(mo, tmp_path, monkeypatch, capsys, label):
    # the order's shape and the witness's adapted basis come from one Smith
    # form, which _cmd_count, build_injection and each sample's sweep share
    calls = {"snf_with_transforms": 0, "inverse_frac": 0}

    def counted(name):
        fn = getattr(intmat, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(intmat, name, wrapper)

    counted("snf_with_transforms")
    counted("inverse_frac")
    run_count_against_references(mo, tmp_path, capsys, label)
    assert calls == {"snf_with_transforms": 1, "inverse_frac": 0}


@pytest.mark.parametrize("label", ["max-L2", "e5-sq2"])
def test_count_decides_membership_without_in_ball(mo, tmp_path, monkeypatch, capsys, label):
    # the walk's integer move condition decides every candidate; in_ball is
    # only the Moebius-form reference that tests compare against
    calls = []
    monkeypatch.setattr(counting, "in_ball", lambda *a: calls.append(a) or in_ball(*a))
    run_count_against_references(mo, tmp_path, capsys, label)
    assert enumerate_norm_ball(mo.lattice, 3, Z0, 1.0, frame_bc(mo, 1.0))
    assert calls == []
