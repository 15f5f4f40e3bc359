import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from oracles import naive_left_ideal_gens, naive_norm_table, row_span_equal, sympy_row_hnf
from quatlat import (
    BalanceSearchSpec,
    QuatAlg,
    balanced_search,
    default_maximal_order,
    eichler_invariant_profile,
    eichler_order,
    ideal_power_order,
    intersect,
    norm_elements,
    smith_condition,
    z_plus_f_order,
)
from quatlat import balance, cli, intmat
from quatlat.arith import factorize
from quatlat.balance import (
    _candidate_norms,
    _ideal_key,
    _local_maps,
    _split_images,
    _try_conjugator,
)
from quatlat.errors import TheoremViolation, UsageError
from quatlat.counting import MAX_SWEEP_SLICES
from quatlat.lattice import (
    Lattice4,
    MaximalOrder,
    _solve_int,
    _vecmat,
    box_slice_count,
    norm_keys,
)


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


@lru_cache(maxsize=None)
def _maximal_order(label):
    """The default maximal order of the algebra label, or "conj" for g O g^-1.

    conj is the default order of (3, -1) conjugated by g = 2 + J of norm 5;
    it differs from Z<I, J> at 5, where a basis coordinate has 5 in its
    denominator.
    """
    if label != "conj":
        return default_maximal_order(QuatAlg(*label))
    mo = _maximal_order((3, -1))
    g = mo.alg.quat(2, 0, 1, 0)
    return MaximalOrder(mo.alg, [list((g * b * g.inverse()).coords())
                                 for b in mo.lattice.basis_quats()])


def _maps(mo_lat, n):
    """_local_maps for n alone, with splittings built at n's own exponents."""
    return _local_maps(mo_lat, n, max(factorize(n).values()), {})


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


def test_height_cap_refuses_boxes_past_the_sweep_limit(mo):
    # on a maximal order the box at height h holds (4h + 1)(2h + 1)^2 slices:
    # 85 is the last height within MAX_SWEEP_SLICES; the refusal comes before
    # any walk, also for an order that is already balanced
    assert box_slice_count(mo.lattice, 85) <= MAX_SWEEP_SLICES < box_slice_count(mo.lattice, 86)
    lat = eichler_order(mo, 5)[0]
    assert lat.is_balanced()
    assert BalanceSearchSpec(lat, frozenset({5}), 1, 85).height_max == 85
    for height in (86, 100_000, 10**400):
        with pytest.raises(UsageError, match="lower the height"):
            BalanceSearchSpec(lat, frozenset({5}), 1, height)


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


def _ideal_classes(mo, n, height):
    """Candidates of norm n up to height, grouped by their left-ideal key."""
    mo_lat = mo.lattice
    local = _maps(mo_lat, n)
    classes = {}
    for key in norm_keys(mo_lat, n, height):
        gamma = mo.quat_from_frame(key, mo_lat.den)
        classes.setdefault(_ideal_key(mo_lat, key, local), []).append(gamma)
    return classes


def test_equal_ideal_keys_give_equal_verdicts(mo):
    # O g' = O g with nrd(g) = nrd(g') = n: g' g^-1 is a unit of O, and
    # conjugating by g' is conjugating by g, then by that unit
    pairs = positive = 0
    for n, p in ((5, 5), (7, 7), (25, 5)):
        lats = [_power_order(mo, p, 2), _power_order(mo, p, 4)]
        for g, *others in _ideal_classes(mo, n, 4).values():
            for g2 in others:  # each against the first: verdicts are transitive
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


def test_ideal_key_rejects_elements_outside_the_order(mo):
    # the den-scaled frame tuple of 1/2, which the maximal order does not hold
    mo_lat = mo.lattice
    assert mo_lat.den % 2 == 0
    half = (mo_lat.den // 2, 0, 0, 0)
    assert not mo_lat.contains_coords((Fraction(1, 2), 0, 0, 0))
    for n in (5, 4, 10):  # a split prime, the ramified prime 2, and both
        with pytest.raises(TheoremViolation):
            _ideal_key(mo_lat, half, _maps(mo_lat, n))


def _basis_coords(mo_lat, x):
    """Integer coordinates of x in the basis of mo_lat."""
    num = tuple(v * mo_lat.den for v in mo_lat.order.frame_coords(x))
    assert all(v.denominator == 1 for v in num)
    coords = _solve_int(mo_lat.mat, [int(v) for v in num])
    assert coords is not None
    return coords


def _mat_mod(m, q):
    return tuple(v % q for v in m)


def _mat_mul_mod(m, n, q):
    return _mat_mod(
        (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
         m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3]), q)


SPLIT_CASES = [((3, -1), 5), ((3, -1), 7), ((3, -1), 11), ((3, -1), 13),
               ((3, -5), 3), ((3, -7), 2), ("conj", 5)]


@pytest.mark.parametrize("label, p", SPLIT_CASES,
                         ids=["5", "7", "11", "13", "3--5-at-3", "3--7-at-2", "conj-at-5"])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_splitting_is_an_isomorphism_onto_matrices(label, p, e):
    # the last three cases were the class-key fallback: p | 2ab, p = 2, and
    # p in a basis denominator of g O g^-1
    mo = _maximal_order(label)
    mo_lat = mo.lattice
    q = p**e
    images = _split_images(mo_lat, p, e)
    assert images is not None
    (_, _, columns), = _maps(mo_lat, q)

    def phi(x):
        return _mat_mod(_vecmat(_basis_coords(mo_lat, x), columns), q)

    basis = mo_lat.basis_quats()
    for b, image in zip(basis, images):
        assert phi(b) == image
        assert (image[0] * image[3] - image[1] * image[2] - b.nrd()) % q == 0
    assert phi(mo.alg.one()) == (1, 0, 0, 1)
    for bi, bj in product(basis, repeat=2):
        assert phi(bi * bj) == _mat_mul_mod(phi(bi), phi(bj), q)
    # the four images span M2(Z/p^e): their 4x4 determinant is a unit
    assert Matrix([list(m) for m in images]).det() % p != 0


def _count_tried(monkeypatch, spec):
    """balanced_search(spec) and the number of conjugators it tried."""
    tried = []

    def counting_try(*args):
        tried.append(args[2])
        return _try_conjugator(*args)

    with monkeypatch.context() as m:
        m.setattr(balance, "_try_conjugator", counting_try)
        return balanced_search(spec), len(tried)


@pytest.mark.parametrize("label, p, tried", [
    ((3, -5), 3, 12),  # 3 | ab
    ((3, -7), 2, 6),  # p = 2
    ("conj", 5, 8),  # 5 in a basis denominator
    ("conj", 7, 26),
], ids=["3--5-at-3", "3--7-at-2", "conj-at-5", "conj-at-7"])
def test_former_fallback_primes_key_by_left_ideals(monkeypatch, label, p, tried):
    # once keyed by the class mod p^e O: now every unramified p splits, and
    # one conjugator is tried per left ideal there too
    mo = _maximal_order(label)
    for r in (2, 3, 5, 7, 11, 13):
        assert all((_split_images(mo.lattice, r, e) is None) == (mo.discriminant % r == 0)
                   for e in (1, 2, 3))
    for k in (2, 3, 4):
        lat = _power_order(mo, p, k)
        assert not lat.is_balanced()
        spec = BalanceSearchSpec(lat, frozenset({p}), 2, 8)
        res, n_tried = _count_tried(monkeypatch, spec)
        assert res is not None
        assert res == _search_every_element(spec)
    assert n_tried == tried  # at k = 4


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
    # one conjugator per left ideal met before the first hit
    assert len(tried) == {5: 20, 7: 48}[p]


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


KEY_NORMS = (2, 3, 5, 6, 7, 10, 25, 35, 49)
# 2 and 3 ramify in (3, -1), 2 and 5 in (3, -5), 3 and 7 in (3, -7); the
# others split, including the former fallback primes 3, 2 and 5 (in conj)
KEY_ORDERS = ((3, -1), (3, -5), (3, -7), "conj")


@lru_cache(maxsize=None)
def _oracle_ideals(label):
    """Per norm n: the oracle's norm-n elements of O with their left ideals.

    Elements come from naive_norm_table at height 6 (the first height with
    norm 49 in (3, -1)), plus r u for n = r^2 and the units u of height at
    most 2 that r u does not already bring within height 6, so
    non-primitive generators of rO are among the norm-n ones.  Each element
    carries its package key and the Hermite form of its naive generators of
    O gamma + nO (equal to O gamma), scaled by one common denominator per
    norm.
    """
    mo = _maximal_order(label)
    a, b = mo.alg.p, mo.alg.q
    mo_lat = mo.lattice

    def ijk(frame):
        return [sum(c * v[i] for c, v in zip(frame, mo.basis)) for i in range(4)]

    basis = [ijk([Fraction(v, mo_lat.den) for v in row]) for row in mo_lat.mat]
    table = naive_norm_table(mo_lat, 6)
    out = {}
    for n in KEY_NORMS:
        elements = list(table.get(n, []))
        r = isqrt(n)
        if r * r == n:
            elements += [tuple(r * c for c in u) for u in table[1]
                         if max(map(abs, u)) <= 2 and max(map(abs, u)) > Fraction(6, r)]
        gens = [naive_left_ideal_gens(a, b, basis, ijk(g), n) for g in elements]
        d = lcm(*(v.denominator for rows in gens for row in rows for v in row))
        local = _maps(mo_lat, n)
        out[n] = [
            (
                _ideal_key(mo_lat, [int(c * mo_lat.den) for c in g], local),
                tuple(map(tuple, sympy_row_hnf([[int(v * d) for v in row] for row in rows]))),
                rows,
            )
            for g, rows in zip(elements, gens)
        ]
    return out


@settings(max_examples=240, deadline=None)
@given(data=st.data())
def test_ideal_key_pairs_agree_with_the_left_ideal_oracle(data):
    # equal keys mean equal ideals and equal ideals mean equal keys, at
    # split and ramified primes alike
    label = data.draw(st.sampled_from(KEY_ORDERS))
    n = data.draw(st.sampled_from(KEY_NORMS))
    entries = _oracle_ideals(label)[n]
    key, ideal, rows = data.draw(st.sampled_from(entries))
    # half the draws pick a generator of the same ideal, so equality is hit
    pool = [e for e in entries if e[1] == ideal] if data.draw(st.booleans()) else entries
    key2, _, rows2 = data.draw(st.sampled_from(pool))
    d = lcm(*(v.denominator for r in rows + rows2 for v in r))
    same = row_span_equal([[int(v * d) for v in r] for r in rows],
                          [[int(v * d) for v in r] for r in rows2])
    assert (key == key2) == same
    r = isqrt(n)
    if r * r == n:  # rO, generated by the r u, is one ideal, keyed apart
        r_key = ((),) if _maximal_order(label).discriminant % r == 0 else (("p", ()),)
        r_o = {e[1] for e in entries if e[0] == r_key}
        assert sum(e[0] == r_key for e in entries) > 1 and len(r_o) == 1


REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


@pytest.mark.parametrize("label", ["e5", "p5n2"])
def test_balance_takes_one_smith_form_per_lattice(mo, tmp_path, monkeypatch, capsys, label):
    # the order's invariant factors are computed once and read by the
    # search, the before/after lines and the balanced/smith line; each
    # candidate conjugate that reaches is_balanced adds one more
    lat = eichler_order(mo, 5)[0] if label == "e5" else _power_order(mo, 5, 2)
    coords = [c for q in lat.basis_quats() for c in q.coords()]
    den = lcm(*(c.denominator for c in coords))
    order_file = tmp_path / "order.json"
    order_file.write_text(json.dumps({"den": den, "mat": [int(c * den) for c in coords]}))
    snf_calls, reached, in_try = [], [], []
    snf = intmat.snf_with_transforms
    is_balanced = Lattice4.is_balanced

    def counting_snf(A):
        snf_calls.append(A)
        return snf(A)

    def counting_is_balanced(self):
        if in_try:
            reached.append(self)
        return is_balanced(self)

    def scoped_try(*args):
        in_try.append(True)
        try:
            return _try_conjugator(*args)
        finally:
            in_try.pop()

    monkeypatch.setattr(intmat, "snf_with_transforms", counting_snf)
    monkeypatch.setattr(Lattice4, "is_balanced", counting_is_balanced)
    monkeypatch.setattr(balance, "_try_conjugator", scoped_try)
    capsys.readouterr()
    argv = ["balance", "--order", str(order_file), "--kmax", "2", "--height", "8", "--threads", "2"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.loads(REFERENCES.read_text())["balance"][label]
    if label == "e5":
        assert not reached
        assert len(snf_calls) == 1
    else:
        assert reached
        assert len(snf_calls) == 1 + len(reached)
