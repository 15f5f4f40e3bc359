from fractions import Fraction
from itertools import combinations

import pytest

from quatlat import (
    BalanceSearchSpec,
    balanced_search,
    eichler_invariant_profile,
    eichler_order,
    ideal_power_order,
    intersect,
    norm_elements,
    smith_condition,
    z_plus_f_order,
)
from quatlat import balance
from quatlat.arith import factorize
from quatlat.balance import _candidate_norms, _class_key, _try_conjugator
from quatlat.errors import TheoremViolation, UsageError
from quatlat.lattice import norm_keys


def _power_order(mo, p, n):
    """Level p^n order cut out by the n-th power of a small norm-p element.

    The construction of the benchmark's balance inputs, so the search is
    exercised on the orders it is timed on.
    """
    for h in (2, 4, 8, 16):
        cands = sorted(
            norm_elements(mo.lattice, p, h), key=lambda q: max(abs(c) for c in q.coords())
        )
        for g in cands:
            gn = g
            for _ in range(n - 1):
                gn = gn * g
            lat = intersect(mo.lattice, mo.lattice.conjugate_by(gn.inverse()))
            if lat.level() == p**n:
                return lat
    raise AssertionError(f"no generic norm-{p} element below height 16")


def _search_every_element(spec):
    """The search as it was before classes mod nO: every element is tried."""
    ord_lat = spec.ord
    mo = ord_lat.order
    if ord_lat.is_balanced():
        return mo.alg.one(), ord_lat
    level = ord_lat.level()
    heights = []
    height = 2
    while height <= spec.height_max:
        heights.append(height)
        height *= 2
    if height // 2 < spec.height_max:
        heights.append(spec.height_max)
    for n in _candidate_norms(sorted(spec.primes), spec.k_max):
        tried = set()
        for height in heights:
            for gamma in norm_elements(mo.lattice, n, height):
                if gamma in tried:
                    continue
                tried.add(gamma)
                conj = _try_conjugator(ord_lat, level, gamma)
                if conj is not None:
                    return gamma, conj
    return None


def test_smith_condition_equals_balanced(mo):
    lats = [
        mo.lattice,
        z_plus_f_order(mo, 2),
        z_plus_f_order(mo, 3),
        z_plus_f_order(mo, 5),
        ideal_power_order(mo, 2, 3),
        ideal_power_order(mo, 3, 2),
        eichler_order(mo, 5)[0],
        eichler_order(mo, 25)[0],
        eichler_order(mo, 35)[0],
    ]
    for lat in lats:
        assert smith_condition(lat) == lat.is_balanced(), lat.level()


def test_candidate_norms_ascending_and_complete():
    norms = _candidate_norms(frozenset({2, 3}), 3)
    assert norms == sorted(norms)
    assert set(norms) == {2, 3, 4, 6, 8, 9, 12, 18, 27}


def test_balanced_order_returns_identity(mo):
    lat = eichler_order(mo, 5)[0]
    assert lat.is_balanced()
    spec = BalanceSearchSpec(lat, frozenset({5}), 2, 16)
    gamma, conj = balanced_search(spec)
    assert gamma == mo.alg.one()
    assert conj == lat


def test_unbalanced_eichler_gets_balanced(mo):
    for p in (5, 7):
        lat = eichler_order(mo, p * p)[0]
        before = lat.invariant_factors_in(mo.lattice).factors
        assert before == (1, 1, 1, p * p)
        assert not lat.is_balanced()
        spec = BalanceSearchSpec(lat, frozenset({p}), 3, 64)
        res = balanced_search(spec)
        assert res is not None
        gamma, conj = res
        assert gamma.nrd() == p
        assert conj.invariant_factors_in(mo.lattice).factors == (1, 1, p, p)
        assert conj.is_balanced() and smith_condition(conj)
        assert conj.level() == lat.level()
        assert conj.is_order()


def test_spec_validation(mo):
    lat = eichler_order(mo, 25)[0]
    with pytest.raises(UsageError):
        BalanceSearchSpec(lat, frozenset({3}), 2, 16)  # level prime missing
    with pytest.raises(UsageError):
        BalanceSearchSpec(lat, frozenset({5}), 0, 16)
    not_an_order = mo.lattice_from_frame_rows(
        [[1, 0, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert not not_an_order.is_order()
    with pytest.raises(UsageError):
        BalanceSearchSpec(not_an_order, frozenset({3}), 2, 16)


def test_eichler_invariant_profile():
    assert eichler_invariant_profile(1) == (1, 1, 1, 1)
    assert eichler_invariant_profile(5) == (1, 1, 1, 5)
    assert eichler_invariant_profile(25) == (1, 1, 5, 5)
    assert eichler_invariant_profile(125) == (1, 1, 5, 25)
    assert eichler_invariant_profile(35) == (1, 1, 1, 35)
    assert eichler_invariant_profile(625) == (1, 1, 25, 25)


def test_class_search_matches_every_element_search(mo):
    lats = [_power_order(mo, p, n) for p in (5, 7, 11, 13) for n in (2, 3, 4)]
    lats += [eichler_order(mo, 25)[0], eichler_order(mo, 49)[0]]
    found = 0
    for lat in lats:
        spec = BalanceSearchSpec(lat, frozenset(factorize(lat.level())), 2, 8)
        res = balanced_search(spec)
        assert res == _search_every_element(spec), lat.level()
        found += res is not None
    assert found == 12  # 11^4 and 13^4 miss at height 8


def test_equal_class_keys_give_equal_verdicts(mo):
    # g' = g mod nO with nrd(g) = nrd(g') = n: g' g^-1 is a unit of O, and
    # conjugating by g' is conjugating by g, then by that unit
    pairs = positive = 0
    for n, p in ((5, 5), (7, 7), (25, 5)):
        lats = [_power_order(mo, p, 2), _power_order(mo, p, 4)]
        mo_lat = mo.lattice
        classes = {}
        for key in norm_keys(mo_lat, n, 4):
            gamma = mo.quat_from_frame(key, mo_lat.den)
            classes.setdefault(_class_key(mo_lat, key, n), []).append(gamma)
        for members in classes.values():
            for g, g2 in combinations(members, 2):
                u = g2 * g.inverse()
                assert mo.lattice.contains_quat(u) and u.nrd() == 1
                for lat in lats:
                    assert lat.conjugate_by(g2) == lat.conjugate_by(g).conjugate_by(u)
                    first = _try_conjugator(lat, lat.level(), g)
                    second = _try_conjugator(lat, lat.level(), g2)
                    assert (first is None) == (second is None)
                    positive += first is not None
                pairs += 1
    assert pairs > 0 and positive > 0  # neither side of the verdict is vacuous


def test_class_key_rejects_elements_outside_the_order(mo):
    # the den-scaled frame tuple of 1/2, which the maximal order does not hold
    mo_lat = mo.lattice
    assert mo_lat.den % 2 == 0
    half = (mo_lat.den // 2, 0, 0, 0)
    assert not mo_lat.contains_coords((Fraction(1, 2), 0, 0, 0))
    with pytest.raises(TheoremViolation):
        _class_key(mo_lat, half, 5)


@pytest.mark.parametrize("p", [5, 7])
def test_search_builds_one_quat_per_class_tried(mo, monkeypatch, p):
    lat = _power_order(mo, p, 4)
    spec = BalanceSearchSpec(lat, frozenset({p}), 2, 8)
    want = _search_every_element(spec)
    built, tried = [], []
    quat_from_frame = type(mo).quat_from_frame

    def counting_quat_from_frame(self, *args):
        built.append(args)
        return quat_from_frame(self, *args)

    def counting_try(*args):
        tried.append(args[2])
        return _try_conjugator(*args)

    monkeypatch.setattr(type(mo), "quat_from_frame", counting_quat_from_frame)
    monkeypatch.setattr(balance, "_try_conjugator", counting_try)
    assert balanced_search(spec) == want
    assert tried and len(built) <= len(tried)


def test_height_one_search_tries_candidates(mo, monkeypatch):
    lat = _power_order(mo, 5, 4)
    assert norm_elements(mo.lattice, 2, 1)  # height-1 candidates exist
    calls = []

    def counting(*args):
        calls.append(args)
        return _try_conjugator(*args)

    monkeypatch.setattr(balance, "_try_conjugator", counting)
    balanced_search(BalanceSearchSpec(lat, frozenset({2, 5}), 2, 1))
    assert len(calls) >= 1
