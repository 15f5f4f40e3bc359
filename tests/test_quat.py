import math
import random
from fractions import Fraction

import pytest

from quatlat import (
    QuatAlg,
    UpperHalfPoint,
    ZBox,
    apply_quat,
    box_constant,
    hilbert_symbol,
    iota_inf,
    u_dist,
)
from quatlat.errors import UsageError

from oracles import conic_has_small_point, falsify_box_constant, sample_moved_unit


def rand_quat(rng, alg, span=10):
    return alg.quat(*[Fraction(rng.randrange(-span, span + 1), rng.choice((1, 2, 3))) for _ in range(4)])


def test_multiplication_identities(alg):
    rng = random.Random(101)
    for _ in range(400):
        x, y = rand_quat(rng, alg), rand_quat(rng, alg)
        assert (x * y).nrd() == x.nrd() * y.nrd()
        assert (x * y).conj() == y.conj() * x.conj()
        assert x * x.conj() == alg.quat(x.nrd())
        # Cayley-Hamilton: x^2 - trd(x) x + nrd(x) = 0
        lhs = x * x - x.trd() * x + alg.quat(x.nrd())
        assert lhs.is_zero()


def test_generator_relations(alg):
    i, j, k = alg.quat(0, 1), alg.quat(0, 0, 1), alg.quat(0, 0, 0, 1)
    assert i * i == alg.quat(alg.p)
    assert j * j == alg.quat(alg.q)
    assert i * j == k
    assert (j * i + k).is_zero()
    assert k * k == alg.quat(-alg.p * alg.q)


def test_inverse(alg):
    rng = random.Random(103)
    found = 0
    while found < 100:
        x = rand_quat(rng, alg)
        if x.nrd() == 0:
            continue
        found += 1
        assert (x * x.inverse() - alg.one()).is_zero()
        assert (x.inverse() * x - alg.one()).is_zero()
    with pytest.raises(UsageError):
        alg.quat(0).inverse()


def test_hilbert_reciprocity():
    rng = random.Random(107)
    vals = [v for v in range(-30, 31) if v]
    for _ in range(300):
        a, b = rng.choice(vals), rng.choice(vals)
        places = {2}
        for v in (a, b):
            n = abs(v)
            d = 2
            while d * d <= n:
                if n % d == 0:
                    places.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                places.add(n)
        prod = -1 if (a < 0 and b < 0) else 1
        for ell in sorted(places):
            prod *= hilbert_symbol(a, b, ell)
        assert prod == 1, (a, b)


def test_hilbert_symbol_vs_conic_points():
    # a global point forces every local symbol to be +1
    rng = random.Random(109)
    vals = [v for v in range(-15, 16) if v]
    for _ in range(200):
        a, b = rng.choice(vals), rng.choice(vals)
        if conic_has_small_point(a, b) is None:
            continue
        for ell in (2, 3, 5, 7, 11, 13):
            assert hilbert_symbol(a, b, ell) == 1, (a, b, ell)


def test_hilbert_symbol_known_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(3, -1, 2) == -1
    assert hilbert_symbol(3, -1, 3) == -1
    assert hilbert_symbol(3, -1, 5) == 1
    assert hilbert_symbol(2, 3, 7) == 1


def test_ramified_set_and_discriminant():
    assert QuatAlg(3, -1).ramified_set() == frozenset({2, 3})
    assert QuatAlg(3, -1).discriminant == 6
    for p, q in ((2, -1), (3, -2), (5, -1), (7, -6)):
        try:
            alg = QuatAlg(p, q)
        except UsageError:
            continue  # matrix algebra; nothing to check
        ram = alg.ramified_set()
        assert len(ram) % 2 == 0 and ram
        assert all((2 * p * q) % ell == 0 for ell in ram)
    with pytest.raises(UsageError):
        QuatAlg(4, -1)  # p not squarefree
    with pytest.raises(UsageError):
        QuatAlg(0, 5)


def test_embedding_matches_norm_and_trace(alg):
    rng = random.Random(113)
    for _ in range(500):
        x = rand_quat(rng, alg)
        (m11, m12), (m21, m22) = iota_inf(x)
        det = m11 * m22 - m12 * m21
        tr = m11 + m22
        scale = max(1.0, abs(float(x.nrd())))
        assert abs(det - float(x.nrd())) <= 1e-9 * scale
        assert abs(tr - float(x.trd())) <= 1e-9 * max(1.0, abs(float(x.trd())))


def test_embedding_is_multiplicative(alg):
    rng = random.Random(127)
    for _ in range(200):
        x, y = rand_quat(rng, alg, 5), rand_quat(rng, alg, 5)
        (a11, a12), (a21, a22) = iota_inf(x)
        (b11, b12), (b21, b22) = iota_inf(y)
        prod = (
            (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22),
            (a21 * b11 + a22 * b21, a21 * b12 + a22 * b22),
        )
        direct = iota_inf(x * y)
        for r in range(2):
            for c in range(2):
                assert abs(prod[r][c] - direct[r][c]) <= 1e-7


def test_u_dist_basics():
    z = UpperHalfPoint(0.3, 1.1)
    assert u_dist(z, z) == 0.0
    w = UpperHalfPoint(-0.2, 0.9)
    assert u_dist(z, w) == u_dist(w, z)
    assert u_dist(z, w) > 0
    # scaling both points leaves the invariant fixed
    z2 = complex(0.6, 2.2)
    w2 = complex(-0.4, 1.8)
    assert math.isclose(u_dist(z.as_complex(), w.as_complex()), u_dist(z2, w2))
    with pytest.raises(UsageError):
        u_dist(complex(0, -1), complex(0, 1))


def test_apply_quat_is_isometry_for_units(alg):
    # positive-norm elements act on H preserving u
    rng = random.Random(131)
    done = 0
    while done < 150:
        x = rand_quat(rng, alg, 4)
        if x.nrd() <= 0:
            continue
        done += 1
        z = UpperHalfPoint(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        w = UpperHalfPoint(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        gz, gw = apply_quat(x, z), apply_quat(x, w)
        assert gz.imag > 0 and gw.imag > 0
        assert math.isclose(u_dist(gz, gw), u_dist(z, w), rel_tol=1e-7, abs_tol=1e-9)


def test_box_constant_not_falsified(alg):
    box = ZBox(-0.5, 0.5, 0.8, 1.2)
    for delta in (0.05, 0.3, 1.0):
        t = box_constant(delta, box, alg)
        worst, witness = falsify_box_constant(t, box, alg, samples=4000, seed=5)
        assert witness is None
        assert worst <= 1.0, worst


def test_sampled_units_stay_in_budget(alg):
    box = ZBox(-0.25, 0.25, 0.9, 1.15)
    delta = 0.2
    t = box_constant(delta, box, alg)
    rng = random.Random(137)
    for _ in range(500):
        z, coords = sample_moved_unit(rng, delta, box, alg)
        for v in coords:
            assert abs(v) <= t.t * (1 + 1e-9)


def test_degenerate_boxes_rejected():
    with pytest.raises(UsageError):
        ZBox(0.5, -0.5, 1.0, 2.0)
    with pytest.raises(UsageError):
        ZBox(-1.0, 1.0, 0.0, 1.0)
    with pytest.raises(UsageError):
        UpperHalfPoint(0.0, -1.0)
