import pytest

from qsing import jacobian
from qsing.quiver import Quiver

# the oracles check their own results with assert; rewritten by pytest, these
# checks still run under python -O
pytest.register_assert_rewrite("oracles")


@pytest.fixture(scope="session")
def a2():
    return Quiver(2, ((1, 2),))


@pytest.fixture(scope="session")
def a3():
    return Quiver(3, ((1, 2), (2, 3)))


@pytest.fixture(scope="session")
def a4():
    return Quiver(4, ((1, 2), (2, 3), (3, 4)))


@pytest.fixture(scope="session")
def d4():
    # three-subspace orientation: all arms point at the center
    return Quiver(4, ((1, 4), (2, 4), (3, 4)))


@pytest.fixture(scope="session")
def d5():
    # three arms at vertex 5: 1 -> 5, 2 -> 5 and 5 -> 3 -> 4
    return Quiver(5, ((1, 5), (2, 5), (5, 3), (3, 4)))


@pytest.fixture(scope="session")
def e6():
    # row 1..5 with the branch vertex 6 attached to the middle
    return Quiver(6, ((1, 2), (2, 3), (4, 3), (5, 4), (6, 3)))


@pytest.fixture(scope="session")
def e7():
    # row 1..6 with the branch vertex 7 attached to vertex 3
    return Quiver(7, ((1, 2), (2, 3), (4, 3), (5, 4), (6, 5), (7, 3)))


@pytest.fixture(scope="session")
def e8():
    # row 1..7 with the branch vertex 8 attached to vertex 3
    return Quiver(8, ((1, 2), (2, 3), (4, 3), (5, 4), (6, 5), (7, 6), (8, 3)))


def fresh_jacobian_caches(mp):
    """Give every context that ``jacobian`` reads fresh ``realized`` and
    ``kernels`` dicts through the MonkeyPatch ``mp``, which puts the kept
    ones back when it is undone.  Both caches hold matrices mod
    ``jacobian.P`` built from ``jacobian.realize``, so a test that changes
    either must leave nothing behind."""
    real, seen = jacobian.hom_table, set()

    def fresh(q):
        table = real(q)
        if id(table) not in seen:
            seen.add(id(table))
            mp.setattr(table, "realized", {})
            mp.setattr(table, "kernels", {})
        return table

    mp.setattr(jacobian, "hom_table", fresh)


@pytest.fixture
def fresh_caches(monkeypatch):
    fresh_jacobian_caches(monkeypatch)


# dimension vectors for the two E-type worked examples
E6_ALPHA = lambda n, m: (n, 2 * n + m, 2 * n + m, 2 * n + m, n, n + m)
E8_ALPHA = lambda n: tuple(n * x for x in (2, 4, 7, 4, 3, 2, 1, 3))


@pytest.fixture(scope="session")
def e6_alpha():
    return E6_ALPHA


@pytest.fixture(scope="session")
def e8_alpha():
    return E8_ALPHA
