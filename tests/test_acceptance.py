"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints a single summary line with the measured numbers on
success (visible with -s or -rA) and enforces its runtime budget where
one is stated.  Run the whole file with `pytest -v tests/test_acceptance.py`.
"""

import math
import random
import time
from fractions import Fraction
from math import gcd, isqrt, log

from quatlat import (
    CombinationProblem,
    QuatAlg,
    SatakeSample,
    amplifier_spec,
    balanced_search,
    BalanceSearchSpec,
    build_amplifier,
    build_injection,
    convolve,
    CountQuery,
    default_maximal_order,
    eichler_order,
    eigenvalue_lower_bound,
    enumerate_norm_ball,
    exponent_bound,
    kappa,
    microlocal_profile,
    minimal_type_profile,
    newform_bound,
    order_small_norm_check,
    project_alpha,
    sieve_count,
    sieve_lower_bound,
    smith_condition,
    solve,
    sweep_counts,
    verify_congruences,
)
from quatlat import intmat
from quatlat.arith import divisor_count, sqrt_ceil_of_product
from quatlat.cli import main, sample_points
from quatlat.counting import in_ball
from quatlat.lattice import (
    ideal_power_order,
    intersect,
    norm_elements,
    traceless_slices,
    z_plus_f_order,
    z_plus_zw_order,
)
from quatlat.quat import UpperHalfPoint, ZBox, box_constant, iota_inf

BOX = ZBox(-0.5, 0.5, 0.8, 1.2)
Z0 = UpperHalfPoint(0.05, 1.02)


def _frame_inv(mo):
    return intmat.inverse_frac([list(r) for r in mo.basis])


def _slope(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    den = sum((a - mx) ** 2 for a in xs)
    return num / den


def _ball_elements(lat, z, delta, t, l_max):
    """All lattice elements of norm 1..l_max in the delta-ball, one pass.

    Walks the trace-zero slices once at the largest height and completes
    scalars, so the cost does not multiply with l_max the way a norm-by-norm
    enumeration would.  Returns {norm: [elements]}.
    """
    den = lat.den
    dd = den * den
    order = lat.order
    cache = {}
    buckets = {}
    for wv, j, qs in traceless_slices(lat, sqrt_ceil_of_product(t.t, l_max)):
        h2_cap = dd * l_max - qs
        if h2_cap < 0:
            continue
        for habs in range(j % den, isqrt(h2_cap) + 1, den):
            for h in (habs, -habs) if habs else (0,):
                if h % den != j % den:
                    continue
                num = h * h + qs
                if num <= 0 or num % dd:
                    continue
                m = num // dd
                if m > l_max:
                    continue
                hm = cache.get(m)
                if hm is None:
                    hm = sqrt_ceil_of_product(t.t, m) * den
                    cache[m] = hm
                if abs(h) > hm or any(abs(c) > hm for c in wv):
                    continue
                alpha = order.quat_from_frame(
                    (Fraction(h, den), Fraction(wv[0], den),
                     Fraction(wv[1], den), Fraction(wv[2], den))
                )
                if in_ball(alpha, z, delta):
                    buckets.setdefault(m, []).append(alpha)
    return buckets


def test_criterion_01_algebra_kernel(alg):
    t0 = time.perf_counter()
    rng = random.Random(29)
    zero = alg.quat(0, 0, 0, 0)

    def rq():
        return alg.quat(
            *(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(4))
        )

    quats = [rq() for _ in range(10_000)]
    for i in range(0, 10_000, 2):
        x, y = quats[i], quats[i + 1]
        xy = x * y
        assert xy.nrd() == x.nrd() * y.nrd()
        assert xy.conj() == y.conj() * x.conj()
    for x in quats:
        n, t = x.nrd(), x.trd()
        assert x * x - t * x + alg.quat(n, 0, 0, 0) == zero
        assert x * x.conj() == alg.quat(n, 0, 0, 0)
    for x in quats:
        (a, b), (c, d) = iota_inf(x)
        n, t = float(x.nrd()), float(x.trd())
        assert abs(a * d - b * c - n) <= 1e-9 * max(1.0, abs(n))
        assert abs(a + d - t) <= 1e-9 * max(1.0, abs(t))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 1 PASS: 10000 quaternions, exact identities, {elapsed:.2f}s")


def test_criterion_02_shape_level_identity(alg, mo):
    t0 = time.perf_counter()
    rng = random.Random(31)
    b = mo.lattice.basis_quats()
    e_counts = {1: 0, 2: 0}
    for _ in range(500):
        d2, d3, d4 = (rng.randint(1, 79) for _ in range(3))
        v2 = (
            rng.randint(0, 1) * b[0]
            + d2 * b[1]
            + rng.randint(-30, 30) * b[2]
            + rng.randint(-30, 30) * b[3]
        )
        v3 = d3 * b[2] + rng.randint(-30, 30) * b[3]
        v4 = d4 * b[3]
        lat = mo.lattice_from_quats([alg.one(), v2, v3, v4])
        assert lat.contains_one()
        assert lat.level() <= 10**6
        sh = lat.shape()
        assert sh.e in (1, 2)
        assert sh.m1 * sh.m2 * sh.m3 * sh.e == sh.level == lat.level()
        e_counts[sh.e] += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert e_counts[1] and e_counts[2]
    print(
        f"criterion 2 PASS: 500 sublattices, M1*M2*M3*e == N exact "
        f"(e=1: {e_counts[1]}, e=2: {e_counts[2]}), {elapsed:.2f}s"
    )


def test_criterion_03_coprime_solver_and_sieve():
    t0 = time.perf_counter()
    rng = random.Random(43)
    solved = 0
    while solved < 200:
        a = tuple(rng.randint(-60, 60) for _ in range(3))
        big_n = rng.randint(2, 10**6)
        g = big_n
        for v in a:
            g = gcd(g, v)
        if g != 1:
            continue
        prob = CombinationProblem(a, big_n, 2, None)
        sols = solve(prob)
        bound = prob.effective_bound()
        assert len(sols) == 4 and sols == sorted(set(sols))
        for r1, r2 in sols:
            assert 0 <= r1 <= bound and 0 <= r2 <= bound
            assert gcd(a[0] + r1 * a[1] + r2 * a[2], big_n) == 1
        assert len({r1 for r1, _ in sols}) >= 2
        assert len({r2 for _, r2 in sols}) >= 2
        assert len(set(sols)) >= 4
        solved += 1
    for _ in range(20):
        big_q = rng.randint(2, 10**4)
        x = rng.randint(1, 10**3)
        a1 = rng.randint(1, big_q)
        while gcd(a1, big_q) != 1:
            a1 = rng.randint(1, big_q)
        a0 = rng.randint(0, big_q)
        exact = sieve_count(a0, a1, big_q, x)
        brute = sum(1 for m in range(1, x + 1) if gcd(a0 + m * a1, big_q) == 1)
        assert exact == brute
        assert exact >= sieve_lower_bound(big_q, x)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"criterion 3 PASS: 200 problems (all conditions + projections), "
        f"20 sieve identities with floor, {elapsed:.2f}s"
    )


def test_criterion_04_injection_certificate(alg, mo):
    t0 = time.perf_counter()
    i1 = alg.quat(0, 1, 0, 0)
    orders = (
        [eichler_order(mo, l)[0] for l in (5, 7, 11, 13)]
        + [z_plus_zw_order(mo, i1, p) for p in (5, 7, 11, 13)]
        + [z_plus_f_order(mo, f) for f in (3, 5, 7, 9)]
    )
    shapes = [lat.shape().tuple3() for lat in orders]
    assert any(m1 == m2 == 1 < m3 for m1, m2, m3 in shapes)
    assert any(m1 == 1 < m2 == m3 for m1, m2, m3 in shapes)
    assert any(m1 == m2 == m3 > 1 for m1, m2, m3 in shapes)
    t1 = box_constant(1.0, BOX, alg, frame_inv=_frame_inv(mo))
    checked = 0
    for idx, lat in enumerate(orders):
        level = lat.level()
        assert level <= 10**4
        w = build_injection(lat)
        for z_i, z in enumerate(sample_points(BOX, 10, seed=400 + idx)):
            rep = sweep_counts(CountQuery(lat, z, 1.0, level, False), w, t1)
            assert rep.total <= rep.explicit_bound
            buckets = _ball_elements(lat, z, 1.0, t1, level)
            assert {m: len(v) for m, v in buckets.items()} == dict(rep.per_m)
            if z_i < 2:
                for m in range(1, min(12, level) + 1):
                    found = enumerate_norm_ball(lat, m, z, 1.0, t1)
                    assert len(found) == len(buckets.get(m, ()))
            elements = [a for group in buckets.values() for a in group]
            assert len(elements) == rep.total
            tuples = set()
            for a in elements:
                doubled = a + a
                assert verify_congruences(w, doubled)
                tuples.add(project_alpha(w, doubled))
            assert len(tuples) == len(elements)
            checked += len(elements)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"criterion 4 PASS: {len(orders)} orders x 10 points, {checked} elements, "
        f"congruences + injectivity + bound, zero failures, {elapsed:.1f}s"
    )


def test_criterion_05_bound_shape_tracking(mo):
    t0 = time.perf_counter()
    alg = mo.alg
    t1 = box_constant(1.0, BOX, alg, frame_inv=_frame_inv(mo))
    family = [
        z_plus_f_order(mo, 2),
        ideal_power_order(mo, 2, 3),
        z_plus_f_order(mo, 3),
        z_plus_f_order(mo, 4),
        z_plus_f_order(mo, 5),
        z_plus_f_order(mo, 8),
        z_plus_f_order(mo, 16),
    ]
    xs, ys, ratios = [], [], []
    for lat in family:
        level = lat.level()
        sh = lat.shape()
        w = build_injection(lat)
        full = sweep_counts(CountQuery(lat, Z0, 1.0, level, False), w, t1)
        shape_term = (
            math.sqrt(level)
            + level / sh.m1
            + level**1.5 / (sh.m1 * sh.m2)
            + level
        )
        ratios.append(full.explicit_bound / shape_term)
        squares = sweep_counts(CountQuery(lat, Z0, 1.0, isqrt(level), True), w, t1)
        xs.append(log(level))
        ys.append(log(max(squares.total, 1)))
    slope = _slope(xs, ys)
    assert max(ratios) <= 1e5
    elapsed = time.perf_counter() - t0
    verdict = "within" if slope <= 2 / 3 + 0.1 else "ABOVE"
    print(
        f"criterion 5 PASS (slope reported, not asserted): square-norm slope "
        f"{slope:.3f} {verdict} 2/3+0.1; bound/shape ratio in "
        f"[{min(ratios):.0f}, {max(ratios):.0f}], {elapsed:.1f}s"
    )


def test_criterion_06_small_norm_commutation(alg, mo):
    t0 = time.perf_counter()
    i1 = alg.quat(0, 1, 0, 0)
    orders = [
        ideal_power_order(mo, 2, 3),
        ideal_power_order(mo, 3, 3),
        z_plus_zw_order(mo, i1, 25),
        z_plus_zw_order(mo, i1, 49),
    ]
    assert [lat.level() for lat in orders] == [16, 81, 625, 2401]
    t_small = box_constant(0.05, ZBox(-0.25, 0.25, 0.9, 1.15), alg, frame_inv=_frame_inv(mo))
    stars = []
    for lat in orders:
        rep = order_small_norm_check(lat, Z0, 0.05, t_small, m_cap=6)
        assert rep.m_star_certified >= rep.m_star
        assert rep.warnings == ()
        for m, count in rep.per_m:
            assert count <= 8 * divisor_count(m)
        stars.append((rep.level, rep.m_star, rep.m_star_certified))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    detail = ", ".join(f"N={n}: m*={s} cert<={c}" for n, s, c in stars)
    print(f"criterion 6 PASS: commutation + divisibility certified ({detail}), {elapsed:.2f}s")


def _eichler_power_order(mo, p, n):
    """Level p^n cut out by powers of a small generic norm-p element."""
    h = 2
    while h <= 16:
        for g in sorted(
            norm_elements(mo.lattice, p, h),
            key=lambda q: max(abs(c) for c in q.coords()),
        ):
            gn = g
            for _ in range(n - 1):
                gn = gn * g
            lat = intersect(mo.lattice, mo.lattice.conjugate_by(gn.inverse()))
            if lat.level() == p**n:
                return lat
        h *= 2
    raise AssertionError(f"no generic norm-{p} element below height 16")


def test_criterion_07_balance(alg, mo):
    t0 = time.perf_counter()
    for p in (5, 7, 11):
        for n in (2, 3, 4):
            lat = _eichler_power_order(mo, p, n)
            res = balanced_search(BalanceSearchSpec(lat, frozenset({p}), 2, 16))
            assert res is not None
            gamma, conj = res
            assert gamma.nrd() == p ** (n // 2)
            assert conj.level() == p**n
            assert conj.is_balanced()
            assert smith_condition(conj)
    for l in (5, 7, 11):
        lat = eichler_order(mo, l)[0]
        gamma, conj = balanced_search(BalanceSearchSpec(lat, frozenset({l}), 1, 4))
        assert gamma == alg.one()
        assert conj == lat
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"criterion 7 PASS: conjugator nrd p^floor(n/2) for p in (5,7,11), n in (2,3,4); "
        f"squarefree levels return identity, {elapsed:.1f}s"
    )


def test_criterion_08_amplifier():
    t0 = time.perf_counter()
    bad = frozenset({2, 3})
    for lam in (5, 10, 20, 40):
        spec = amplifier_spec(Fraction(lam), bad)
        p_set = set(spec.prime_set)
        combo = build_amplifier(spec)
        coeffs = dict(combo.coeffs)
        assert coeffs[1].re == 2 * len(spec.prime_set) and coeffs[1].im == 0
        for l, c in combo.coeffs:
            assert l <= 16 * lam**4
            if l == 1:
                continue
            assert c.abs_sq() <= 4
            exps = []
            rest = l
            for p in sorted(p_set):
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                if e:
                    exps.append(e)
            assert rest == 1
            assert sorted(exps) in ([2], [4], [1, 1], [2, 2])
    spec5 = amplifier_spec(Fraction(5), bad)
    for l in spec5.prime_set:
        res = convolve(kappa(l, bad), kappa(l, bad))
        assert {i: c.re for i, c in res.coeffs} == {1: 1, l * l: 1}
    rng = random.Random(83)
    floor = None
    for _ in range(10_000):
        s = SatakeSample(
            tuple((p, Fraction(rng.randint(-20, 20), 10)) for p in spec5.prime_set)
        )
        sp = amplifier_spec(Fraction(5), bad, sample=s)
        val = eigenvalue_lower_bound(sp, s)
        floor = Fraction(len(sp.prime_set) ** 2, 8)
        assert val >= floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"criterion 8 PASS: caps exact for lambda in (5,10,20,40); convolution "
        f"identity; 10000 samples >= {floor}, {elapsed:.2f}s"
    )


def test_criterion_09_exponent_calculators():
    t0 = time.perf_counter()
    rng = random.Random(97)
    pool = (2, 3, 5, 7, 11, 13, 17)
    for _ in range(40):
        primes = rng.sample(pool, rng.randint(1, 4))
        fac = {p: 1 for p in primes}
        n = math.prod(primes)
        rep = exponent_bound(fac)
        assert rep.branch == "N^(11/24)"
        assert rep.exponent == Fraction(11, 24)
        assert rep.value_pow24 == Fraction(n**11)
    for _ in range(40):
        primes = rng.sample(pool, rng.randint(1, 3))
        fac = {p: rng.randint(2, 5) for p in primes}
        n = math.prod(p**e for p, e in fac.items())
        rep = exponent_bound(fac)
        assert rep.branch == "N^(1/3)"
        assert rep.exponent == Fraction(1, 3)
        assert rep.value_pow24 == Fraction(n**8)
    for p, k in ((5, 1), (7, 1), (5, 2), (11, 1), (13, 3)):
        c = p ** (4 * k)
        rep = minimal_type_profile({p: 4 * k})
        assert rep.value_pow24 == Fraction(c**4)
        assert rep.c1 == p ** (2 * k)
    micro = microlocal_profile({5: 1, 7: 2})
    assert micro.exponent == Fraction(1, 6)
    assert micro.value_pow24 == Fraction(((5 * 7 * 7) ** 4) ** 4)
    for _ in range(100):
        primes = rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 3))
        c_fac = {p: rng.randint(1, 6) for p in primes}
        c = math.prod(p**e for p, e in c_fac.items())
        c1 = math.prod(p ** -(-e // 2) for p, e in c_fac.items())
        b1 = Fraction(c**8) if c * c >= c1**3 else Fraction(c1**12)
        b1_name = "C^(1/3)" if c * c >= c1**3 else "C1^(1/2)"
        b2 = Fraction(c1**12, c1 * c1 // c)
        rep = newform_bound(c_fac, {})
        assert rep.value_pow24 == min(b1, b2)
        if b1 <= b2:
            assert rep.branch == b1_name
        else:
            assert rep.branch == "C'^(-1/24) * lcm(M,C1)^(1/2)"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 9 PASS: 11/24 squarefree, 1/3 squarefull, 1/6 minimal and "
        f"microlocal, 100 newform branch selections, {elapsed:.2f}s"
    )


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    texts = []
    for threads in (1, 4, 8):
        out = tmp_path / f"count-{threads}.csv"
        code = main(
            ["count", "--seed", "7", "--lmax", "6", "--threads", str(threads),
             "--out", str(out)]
        )
        assert code == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]
    reruns = []
    for run in range(2):
        out = tmp_path / f"amp-{run}.txt"
        assert main(["amp", "--lambda", "10", "--out", str(out)]) == 0
        reruns.append(out.read_bytes())
    assert reruns[0] == reruns[1]
    elapsed = time.perf_counter() - t0
    print(
        f"criterion 10 PASS: count byte-identical across threads 1/4/8 at fixed "
        f"seed; repeat runs identical, {elapsed:.1f}s"
    )
