import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatlat import CombinationProblem, auto_bound, sieve_count, sieve_lower_bound, solve
from quatlat.errors import ConstructionFailed, InfeasibleError, UsageError

from oracles import naive_coprime_tuples, naive_sieve_count


def test_single_coefficient_example():
    # gcd(0 + 1*r, 6) = 1 within bound 10, keeping the first c = 2 hits
    prob = CombinationProblem((0, 1), 6, 2, 10)
    assert solve(prob) == [(1,), (5,)]


def _projection_counts_ok(sols, n, c):
    for mask in range(1, 2**n):
        idx = [i for i in range(n) if mask >> i & 1]
        projected = {tuple(s[i] for i in idx) for s in sols}
        if len(projected) < c ** len(idx):
            return False
    return True


def test_solutions_are_valid_with_projections():
    rng = random.Random(307)
    solved = 0
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        a = tuple(rng.randrange(0, 50) for _ in range(n + 1))
        big_n = rng.randrange(2, 5000)
        c = rng.choice((2, 3))
        try:
            prob = CombinationProblem(a, big_n, c)
        except UsageError:
            continue  # shared factor; ill-posed by construction
        try:
            sols = solve(prob)
        except InfeasibleError as e:
            assert e.subset and all(1 <= i <= n for i in e.subset)
            continue
        solved += 1
        assert len(sols) == c**n
        assert len(set(sols)) == c**n
        assert sols == sorted(sols)
        bound = prob.effective_bound()
        for s in sols:
            val = a[0] + sum(a[i + 1] * s[i] for i in range(n))
            assert gcd(val, big_n) == 1
            assert all(0 <= r <= bound for r in s)
        assert _projection_counts_ok(sols, n, c)
    assert solved > 100


def test_one_variable_solutions_are_lex_first():
    rng = random.Random(331)
    for _ in range(100):
        a = (rng.randrange(0, 50), rng.randrange(1, 50))
        big_n = rng.randrange(2, 3000)
        c = rng.choice((2, 3))
        try:
            prob = CombinationProblem(a, big_n, c)
            sols = solve(prob)
        except (UsageError, InfeasibleError):
            continue
        want = naive_coprime_tuples(a, big_n, prob.effective_bound() + 1, c)
        assert sols == want, (a, big_n, c)


def _coprime(a, big_n, tup) -> bool:
    return gcd(a[0] + sum(x * r for x, r in zip(a[1:], tup)), big_n) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.integers(0, 15), min_size=n + 1,
                                                    max_size=n + 1)),
       st.integers(1, 210), st.integers(1, 3), st.integers(1, 6))
def test_solve_against_brute_force(a, big_n, c, bound):
    # brute force: every tuple of [0, bound]^n whose combination is coprime
    a = tuple(a)
    n = len(a) - 1
    if gcd(big_n, *a) != 1:
        with pytest.raises(UsageError):
            CombinationProblem(a, big_n, c, bound)
        return
    coprime = [t for t in product(range(bound + 1), repeat=n) if _coprime(a, big_n, t)]
    try:
        sols = solve(CombinationProblem(a, big_n, c, bound))
    except InfeasibleError as e:
        assert e.subset and all(1 <= i <= n for i in e.subset)
        if n == 1:  # one variable: a miss means fewer than c coprime values
            assert len(coprime) < c
    else:
        assert len(sols) == len(set(sols)) == c**n
        assert sols == sorted(sols)
        assert set(sols) <= set(coprime)
        assert _projection_counts_ok(sols, n, c)
        if n == 1:
            assert sols == coprime[:c]
    # with the automatic bound, small problems of up to two variables solve
    if n <= 2:
        prob = CombinationProblem(a, big_n, c)
        sols = solve(prob)
        assert len(set(sols)) == c**n and _projection_counts_ok(sols, n, c)
        assert all(_coprime(a, big_n, t) and max(t) <= prob.effective_bound() for t in sols)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.integers(0, 15), min_size=n + 1,
                                                    max_size=n + 1)),
       st.integers(1, 210), st.integers(1, 2), st.integers(1, 6))
def test_solve_raises_only_when_the_bounded_box_is_empty(a, big_n, c, bound):
    # c = 1: InfeasibleError means no tuple of [0, bound]^n is coprime.
    # c = 2 with several variables: a failure is ConstructionFailed, which
    # claims nothing about the box; with one variable the scan is exhaustive
    a = tuple(a)
    n = len(a) - 1
    if gcd(big_n, *a) != 1:
        return
    coprime = [t for t in product(range(bound + 1), repeat=n) if _coprime(a, big_n, t)]
    try:
        sols = solve(CombinationProblem(a, big_n, c, bound))
    except ConstructionFailed:
        assert c > 1 and n > 1
    except InfeasibleError as e:
        assert len(coprime) < c
        assert e.subset and all(1 <= i <= n for i in e.subset)
    else:
        assert len(sols) == len(set(sols)) == c**n
        assert set(sols) <= set(coprime)
        assert _projection_counts_ok(sols, n, c)


def test_backtracking_finds_a_tuple_the_construction_misses():
    # the construction fixes the prefix p1 = 0 first, and 3 + 13 p2 is never
    # coprime to 72 for p2 in [0, 1]; (1, 1) gives 31
    prob = CombinationProblem((3, 15, 13), 72, 1, 1)
    assert solve(prob) == [(1, 1)]
    with pytest.raises(ConstructionFailed):
        solve(CombinationProblem((3, 15, 13), 72, 2, 1))


def test_tuple_entries_within_bound():
    prob = CombinationProblem((1, 3, 5), 700, 2)
    for sol in solve(prob):
        assert all(0 <= r <= prob.effective_bound() for r in sol)
        assert gcd(1 + 3 * sol[0] + 5 * sol[1], 700) == 1


def test_infeasible_has_certificate():
    # bound 1 leaves a single coprime value where two are required
    with pytest.raises(InfeasibleError) as exc:
        solve(CombinationProblem((0, 1), 6, 2, 1))
    assert exc.value.subset == (1,)
    with pytest.raises(UsageError):
        CombinationProblem((2, 4), 8, 2)  # shared factor is rejected up front


def test_auto_bound_monotone_enough():
    for big_n in (6, 100, 2310, 10**6):
        for c in (2, 3):
            b = auto_bound(big_n, c)
            assert b >= 64
            assert isinstance(b, int)


def test_validation():
    with pytest.raises(UsageError):
        CombinationProblem((1,), 6, 2)  # no free coefficients
    with pytest.raises(UsageError):
        CombinationProblem((1, 2), 0, 2)
    with pytest.raises(UsageError):
        CombinationProblem((1, 2), 6, 0)


def test_sieve_count_exact():
    rng = random.Random(311)
    for _ in range(200):
        big_q = rng.randrange(1, 400)
        x = rng.randrange(1, 300)
        a0 = rng.randrange(0, 60)
        a1 = rng.randrange(1, 60)
        if gcd(a1, big_q) != 1:
            continue
        assert sieve_count(a0, a1, big_q, x) == naive_sieve_count(a0, a1, big_q, x)


def test_sieve_lower_bound_holds():
    rng = random.Random(313)
    for _ in range(200):
        big_q = rng.randrange(2, 2000)
        x = rng.randrange(1, 1000)
        lower = sieve_lower_bound(big_q, x)
        assert isinstance(lower, Fraction)
        got = sieve_count(0, 1, big_q, x)
        assert got >= lower
