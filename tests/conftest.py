import pytest

from quatlat import QuatAlg, default_maximal_order, eichler_order

# algebras (p, q) the multi-algebra fixture covers
FIXTURE_ALGEBRAS = ((3, -1), (2, -5), (3, -5), (3, -7), (11, -3))


@pytest.fixture(scope="session")
def alg():
    return QuatAlg(3, -1)


@pytest.fixture(scope="session")
def mo(alg):
    return default_maximal_order(alg)


@pytest.fixture(scope="session")
def algebra_orders():
    """For each of FIXTURE_ALGEBRAS: its default maximal order, then an
    Eichler order in it of level 5 or 7, whichever is coprime to its
    discriminant."""
    out = []
    for p, q in FIXTURE_ALGEBRAS:
        order = default_maximal_order(QuatAlg(p, q))
        level = next(n for n in (5, 7) if order.discriminant % n)
        out += [order.lattice, eichler_order(order, level)[0]]
    return out
