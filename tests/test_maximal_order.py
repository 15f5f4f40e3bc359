"""The integer MaximalOrder core and Lattice4.is_order against Fraction oracles."""

from fractions import Fraction

import pytest

from oracles import naive_frame, naive_is_order, naive_quat_mul
from quatlat import (
    MaximalOrder,
    QuatAlg,
    default_maximal_order,
    eichler_order,
    ideal_power_order,
    two_sided_prime_ideal,
    z_plus_f_order,
    z_plus_zw_order,
)
from quatlat.errors import TheoremViolation, UsageError
from quatlat.lattice import Lattice4

ALGEBRAS = [(3, -1), (2, -5), (3, -5), (3, -7), (11, -3)]


def _ijk_rows(mo):
    """The (1, I, J, IJ) rows of the order's own basis, as Fractions."""
    return [list(q.coords()) for q in mo.lattice.basis_quats()]


def _conjugated_rows(a, b, rows, gamma):
    """gamma x gamma^-1 for each row x, by naive Fraction products."""
    g0, g1, g2, g3 = gamma
    nrd = g0 * g0 - a * g1 * g1 - b * g2 * g2 + a * b * g3 * g3
    inv = [Fraction(g0, nrd)] + [Fraction(-v, nrd) for v in (g1, g2, g3)]
    return [list(naive_quat_mul(a, b, naive_quat_mul(a, b, gamma, x), inv)) for x in rows]


def _orders():
    """(label, algebra (a, b), rational generators) of every order under test."""
    out = []
    for a, b in ALGEBRAS:
        out.append((f"default({a},{b})", (a, b), _ijk_rows(default_maximal_order(QuatAlg(a, b)))))
    rows = _ijk_rows(default_maximal_order(QuatAlg(3, -1)))
    out.append(("(2+J)O(2+J)^-1 in (3,-1)", (3, -1), _conjugated_rows(3, -1, rows, (2, 0, 1, 0))))
    return out


ORDERS = _orders()


def _as_tuples(rows):
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("label, ab, gens", ORDERS, ids=[o[0] for o in ORDERS])
def test_integer_core_matches_the_fraction_oracle(label, ab, gens):
    alg = QuatAlg(*ab)
    want = naive_frame(*ab, gens)
    built = [MaximalOrder(alg, gens)]
    if label.startswith("default"):
        built.append(default_maximal_order(alg))
    for mo in built:
        assert _as_tuples(mo._f_cols) == _as_tuples(want["f_cols"])
        assert mo._f_den == want["f_den"]
        assert _as_tuples(mo.gram0) == _as_tuples(want["gram0"])
        assert mo._frame_hnf == (_as_tuples(want["frame_hnf"][0]), want["frame_hnf"][1])
        assert _as_tuples(mo.basis) == _as_tuples(want["basis"])
        assert _as_tuples(mo._from_ijk) == _as_tuples(want["from_ijk"])
        assert [q.coords() for q in mo.i_basis] == [tuple(r) for r in want["basis"][1:]]


def test_conjugated_order_has_a_nontrivial_frame_inverse():
    # the conjugate is the one input whose inverse frame needs a denominator
    want = naive_frame(3, -1, ORDERS[-1][2])
    assert want["f_den"] > 1


def test_closure_check_rejects_a_non_order_of_maximal_covolume(mo):
    # span((1 + i1) / 2, i1, i2, i3) holds 1 and has the maximal order's
    # covolume, so only the closure check tells it apart: ((1 + i1) / 2)^2
    # = 1 + i1 / 2 is not in it
    b = mo.basis
    rows = [[(b[0][k] + b[1][k]) / 2 for k in range(4)], list(b[1]), list(b[2]), list(b[3])]
    with pytest.raises(UsageError, match="does not span an order"):
        MaximalOrder(mo.alg, rows)


def test_index_two_check_is_live(mo, monkeypatch):
    # a broken frame that reads the scalars plus trace-zero part as the
    # whole order must raise, not build
    monkeypatch.setattr(Lattice4, "z_plus_trace_zero", lambda self: self)
    with pytest.raises(TheoremViolation, match="not 2"):
        MaximalOrder(mo.alg, _ijk_rows(mo))


def _is_order_cases(mo):
    i1 = mo.i_basis[0]
    orders = [
        ("maximal", mo.lattice),
        ("Eichler-5", eichler_order(mo, 5)[0]),
        ("Z + 3O", z_plus_f_order(mo, 3)),
        ("Z + P2^3", ideal_power_order(mo, 2, 3)),
    ]
    orders += [(f"Z + Z i1 + {f}O", z_plus_zw_order(mo, i1, f)) for f in (1, 2, 3, 5)]
    half_i1 = i1 * Fraction(1, 2)
    non_orders = [(f"Z + Z i1/2 + {f}O", z_plus_zw_order(mo, half_i1, f)) for f in (1, 2, 3, 5)]
    non_orders += [
        ("P3 (no 1)", two_sided_prime_ideal(mo, 3)),
        ("2O (no 1)", mo.lattice_from_frame_rows(
            [[Fraction(2 * v, mo.lattice.den) for v in row] for row in mo.lattice.mat])),
    ]
    return orders, non_orders


def test_integer_is_order_matches_the_fraction_oracle(mo):
    # w in O makes Z + Z w + fO closed for every f (w^2 = trd(w) w - nrd(w)),
    # so the non-closed lattices of that form take w = i1 / 2
    orders, non_orders = _is_order_cases(mo)
    for label, lat in orders:
        assert naive_is_order(lat), label
        assert lat.is_order(), label
    for label, lat in non_orders:
        assert not naive_is_order(lat), label
        assert not lat.is_order(), label
