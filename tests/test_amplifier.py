import random
from fractions import Fraction

import pytest

from quatlat import (
    SatakeSample,
    amplifier_spec,
    build_amplifier,
    convolve,
    eigenvalue_lower_bound,
    exponent_bound,
    hecke_mul,
    kappa,
    local_bound_pow24,
    microlocal_profile,
    minimal_type_profile,
    newform_bound,
    smallest_root_cover,
)
from quatlat.amplifier import MAX_AMP_LAMBDA, Cx, _allowed_index
from quatlat.errors import TheoremViolation, UsageError

from oracles import eval_combo

BAD = frozenset({2, 3})


def rand_sample(rng, primes=(5, 7, 11, 13)):
    vals = []
    for p in primes:
        vals.append((p, Fraction(rng.randrange(-20, 21), 10)))
    return SatakeSample(tuple(vals))


def test_satake_recursion():
    s = SatakeSample(((5, Fraction(3, 2)),))
    assert s.lam(1) == 1
    assert s.lam(5) == Fraction(3, 2)
    assert s.lam(25) == Fraction(3, 2) ** 2 - 1
    assert s.lam(125) == Fraction(3, 2) * s.lam(25) - s.lam(5)
    s2 = SatakeSample(((5, Fraction(1)), (7, Fraction(-1, 2))))
    assert s2.lam(35) == s2.lam(5) * s2.lam(7)
    with pytest.raises(UsageError):
        SatakeSample(((5, Fraction(5, 2)),))


def test_hecke_mul_matches_eigenvalue_product():
    rng = random.Random(501)
    for _ in range(100):
        ls = rng.sample((1, 5, 7, 11, 25, 35, 49, 55), k=3)
        a = kappa(ls[0], BAD)
        for l in ls[1:2]:
            a = a + kappa(l, BAD).scale(Cx(Fraction(rng.randrange(-3, 4))))
        b = kappa(ls[2], BAD)
        prod = hecke_mul(a, b)
        s = rand_sample(rng)
        lhs = eval_combo(prod, s)
        rhs = eval_combo(a, s) * eval_combo(b, s)
        assert lhs == rhs


def test_single_prime_convolution_identity():
    # kappa_l * adjoint(kappa_l) = kappa_{l^2} + kappa_1
    for l in (5, 7, 11):
        res = convolve(kappa(l, BAD), kappa(l, BAD))
        assert dict(
            (i, c.re) for i, c in res.coeffs
        ) == {1: 1, l * l: 1}


def test_combo_validation():
    with pytest.raises(UsageError):
        kappa(6, BAD)  # index shares a factor with the bad set
    with pytest.raises(UsageError):
        kappa(0, BAD)


def test_amplifier_frozen_window_lambda5():
    spec = amplifier_spec(Fraction(5), BAD)
    assert spec.prime_set == (5, 7)
    combo = build_amplifier(spec)
    got = {l: c.re for l, c in combo.coeffs}
    assert got == {1: 4, 25: 2, 35: 2, 49: 2, 625: 1, 1225: 2, 2401: 1}


def test_amplifier_single_prime_window():
    # only one prime in [lambda, 2 lambda] coprime to {2, 3, 5, 7}
    bad = frozenset({2, 3, 5, 7})
    spec = amplifier_spec(Fraction(11), bad)
    assert spec.prime_set == (11, 13, 17, 19)
    spec_small = amplifier_spec(Fraction(23), frozenset({2, 3, 5, 7, 11, 13, 29, 31, 37, 41, 43}))
    assert spec_small.prime_set == (23,)
    combo = build_amplifier(spec_small)
    got = {l: c.re for l, c in combo.coeffs}
    assert got == {1: 2, 23**2: 2, 23**4: 1}


def test_amplifier_window_above_the_cap_is_refused():
    # the work grows like lambda^2, so a window past MAX_AMP_LAMBDA is refused
    # before its primes are listed
    for lam in (Fraction(MAX_AMP_LAMBDA) + Fraction(1, 10), Fraction(10**400)):
        with pytest.raises(UsageError, match="lambda must be at most"):
            amplifier_spec(lam, BAD)
    # every prime of the window is bad, so the cap itself reaches the next check
    window = frozenset(range(MAX_AMP_LAMBDA, 2 * MAX_AMP_LAMBDA + 1))
    with pytest.raises(UsageError, match="no primes"):
        amplifier_spec(Fraction(MAX_AMP_LAMBDA), window)


def test_amplifier_support_and_caps():
    for lam in (5, 10, 20):
        spec = amplifier_spec(Fraction(lam), BAD)
        combo = build_amplifier(spec)
        support = combo.support()
        assert all(l <= 16 * lam**4 for l in support)
        p_set = set(spec.prime_set)
        for l in support:
            assert l == 1 or _allowed_index(l, p_set)
        y1 = dict(combo.coeffs)[1]
        assert y1.re == 2 * len(spec.prime_set) and y1.im == 0
        for l, c in combo.coeffs:
            if l > 1:
                assert c.abs_sq() <= 4


def test_eigenvalue_lower_bound_floor():
    rng = random.Random(503)
    for _ in range(500):
        s = rand_sample(rng, primes=(5, 7))
        spec = amplifier_spec(Fraction(5), BAD, sample=s)
        val = eigenvalue_lower_bound(spec, s)
        assert val >= Fraction(len(spec.prime_set) ** 2, 8)


def test_eigenvalue_bound_rejects_wrong_signs():
    s = SatakeSample(((5, Fraction(2)), (7, Fraction(2))))
    spec = amplifier_spec(Fraction(5), BAD, sample=s)
    flipped = SatakeSample(((5, Fraction(-2)), (7, Fraction(-2))))
    with pytest.raises(UsageError):
        eigenvalue_lower_bound(spec, flipped)


def test_smallest_root_cover():
    assert smallest_root_cover({2: 3, 3: 1}) == 2**2 * 3
    assert smallest_root_cover({}) == 1
    assert smallest_root_cover({5: 4}) == 25


def test_exponent_headline_branches():
    rep = exponent_bound({2: 4, 3: 4})  # squarefull
    assert rep.branch == "N^(1/3)"
    assert rep.exponent == Fraction(1, 3)
    assert rep.value_pow24 == Fraction((2**4 * 3**4) ** 8)

    rep2 = exponent_bound({2: 1, 3: 1, 5: 1})  # squarefree
    assert rep2.branch == "N^(11/24)"
    assert rep2.exponent == Fraction(11, 24)

    rep3 = exponent_bound({7: 3})  # prime cube: N1^(1/2) = N^(1/3) * 7^(1/6)?
    # p^3 gives N1 = p^2, N1^(1/2) = p, N^(1/3) = p: the two branches tie,
    # and the squarefull rule wins the tie
    assert rep3.value_pow24 == Fraction(7**24)

    rep4 = exponent_bound({2: 1, 3: 2})  # mixed, but the cube-root term still wins
    assert rep4.branch == "N^(1/3)"
    assert rep4.value_pow24 == Fraction(18**8)

    # mixed with a heavy radical: the radical-root term finally takes over
    rep5 = exponent_bound({2: 2, 3: 1, 5: 1})
    assert rep5.branch == "N1^(1/2)"
    assert rep5.n1 == 2 * 3 * 5
    assert rep5.value_pow24 == Fraction(30**12)


def test_minimal_type_profiles():
    rep = minimal_type_profile({5: 4})
    assert rep.branch == "C1^(1/3)"
    assert rep.c1 == 25
    assert rep.value_pow24 == Fraction(25**8)
    assert rep.extras == ()

    rep2 = minimal_type_profile({5: 6})  # c = 6 = 2 mod 4
    assert rep2.c1 == 5**3
    assert rep2.n_level == ((5, 2),)
    assert rep2.dim == 5
    assert rep2.extras == ((5, Fraction(1, 6)),)

    rep3 = minimal_type_profile({5: 2})
    assert rep3.dim == 4  # p - 1
    assert rep3.c1 == 5
    assert rep3.n_level == ()

    rep4 = minimal_type_profile({5: 3})
    assert rep4.c1 == 25


def test_microlocal_profile():
    rep = microlocal_profile({5: 1, 7: 1})
    c = (5 * 7) ** 4
    assert rep.value_pow24 == Fraction(c**4)
    assert rep.branch == "C^(1/6)"
    level = dict(rep.n_level)
    assert level == {5: 2, 7: 2}


def test_newform_branch_comparison():
    # depth-4 prime power with trivial nebentypus: the lcm branch wins
    rep = newform_bound({2: 4}, {})
    assert rep.branch == "C'^(-1/24) * lcm(M,C1)^(1/2)"
    assert rep.value_pow24 == Fraction(2**24)

    rep2 = newform_bound({2: 1, 3: 1}, {})
    assert rep2.value_pow24 <= Fraction((2 * 3) ** 11)

    # large conductor of the character forces the first branch
    rep3 = newform_bound({2: 8}, {2: 4})
    assert rep3.value_pow24 > 0


def test_local_bound_pow24_multiplicative():
    a = local_bound_pow24({2: 3})
    b = local_bound_pow24({3: 2})
    ab = local_bound_pow24({2: 3, 3: 2})
    assert ab == a * b
