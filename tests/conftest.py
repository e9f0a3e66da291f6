import pytest

from lieposet import build_poset, frobenius, harness


@pytest.fixture(autouse=True)
def fresh_kirillov_solve():
    """Empty the one-entry Kirillov solve and ad-pass caches (the
    latter keyed by the poset and X = d*x as (element, int) pairs, and
    holding ad(X) as its diagonal and its off-diagonal columns), and
    the campaign's component cache, before every test.

    A test that patches `frobenius.solve`, `frobenius._integer_ad`,
    `structure_constants` or a component rank would otherwise read a
    result cached before the patch, or leave one made under it for the
    next test; a test that counts eliminations, passes or oracle calls
    would count none on a cache hit.
    """
    frobenius._solve_kirillov.cache_clear()
    frobenius._integer_ad.cache_clear()
    harness._component_index.cache_clear()


@pytest.fixture(scope="session")
def path_poset():
    """Type-C poset on +-{1,2,3} whose relation graph is the path 1-2-3."""
    return build_poset("C", 3, [(-2, 1), (-2, 3), (-3, 2), (-1, 2)])


@pytest.fixture(scope="session")
def looped_path_poset():
    """Path 1-2-3 with a self loop at 2 (index zero)."""
    return build_poset("C", 3, [(-2, 1), (-2, 2), (-2, 3), (-3, 2), (-1, 2)])


@pytest.fixture(scope="session")
def triangle_poset():
    """Relation graph a 3-cycle on {1,2,3} (index zero, no loops)."""
    return build_poset("C", 3, [(-1, 2), (-1, 3), (-2, 3)])


@pytest.fixture(scope="session")
def sl2_like_poset():
    """The two-dimensional type-C algebra: single mirror pair -1 <= 1."""
    return build_poset("C", 1, [(-1, 1)])


@pytest.fixture(scope="session")
def four_cycle_poset():
    """Relation graph a 4-cycle on {1,2,3,4} (index two)."""
    return build_poset("C", 4, [(-1, 2), (-2, 3), (-3, 4), (-1, 4)])
